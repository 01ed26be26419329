"""Published closed forms for the benchmark probe families.

This is the single source of truth the table audit compares against: for each
family, the predicted intra-mode pair coherence g2, cross coherence g2_ab,
and phase information F, all as functions of the total mean photon number.
The audit verifies or flags these values; it never reconciles them. Some
cells are known to assume other conventions (or to hold only asymptotically),
which is exactly what the flagging is for, so the forms below are transcribed
as published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple


@dataclass(frozen=True)
class RowForms:
    """Closed-form predictions for one probe family."""

    family: str
    label: str
    g2: Callable[[float], float]
    g2_text: str
    g2_ab: Callable[[float], float]
    g2_ab_text: str
    qfi: Callable[[float], float]
    qfi_text: str
    exact: bool = True  # False: published forms hold only asymptotically


TABLE1: Tuple[RowForms, ...] = (
    RowForms(
        family="twin-squeezed-vacuum",
        label="S_a(xi) S_b(xi) |0,0>",
        g2=lambda n: 3.0 + 1.0 / n,
        g2_text="3 + 1/nbar",
        g2_ab=lambda n: 1.0,
        g2_ab_text="1",
        qfi=lambda n: n**2 + 2.0 * n,
        qfi_text="nbar^2 + 2 nbar",
    ),
    RowForms(
        family="twin-fock",
        label="B |n,n>",
        g2=lambda n: 1.5 - 1.0 / n,
        g2_text="3/2 - 1/nbar",
        g2_ab=lambda n: 0.5 - 1.0 / n,
        g2_ab_text="1/2 - 1/nbar",
        qfi=lambda n: (n**2 + 2.0 * n) / 2.0,
        qfi_text="(nbar^2 + 2 nbar)/2",
    ),
    RowForms(
        family="entangled-coherent",
        label="(|alpha,0> + |0,alpha>)/sqrt2",
        g2=lambda n: 2.0,
        g2_text="2",
        g2_ab=lambda n: 0.0,
        g2_ab_text="0",
        qfi=lambda n: n**2 + n,
        qfi_text="nbar^2 + nbar",
        exact=False,
    ),
    RowForms(
        family="noon",
        label="(|n,0> + |0,n>)/sqrt2",
        g2=lambda n: 2.0 - 2.0 / n,
        g2_text="2 - 2/nbar",
        g2_ab=lambda n: 0.0,
        g2_ab_text="0",
        qfi=lambda n: n**2,
        qfi_text="nbar^2",
    ),
    RowForms(
        family="amplified-bell",
        label="S_a(xi) S_b(xi) B |1,0>",
        g2=lambda n: (9.0 * n**2 + 2.0 * n - 11.0) / (4.0 * n**2),
        g2_text="(9 nbar^2 + 2 nbar - 11)/(4 nbar^2)",
        g2_ab=lambda n: (3.0 * n**2 - n - 1.0) / (4.0 * n**2),
        g2_ab_text="(3 nbar^2 - nbar - 1)/(4 nbar^2)",
        qfi=lambda n: (3.0 * n**2 + 6.0 * n - 5.0) / 4.0,
        qfi_text="(3 nbar^2 + 6 nbar - 5)/4",
    ),
    RowForms(
        family="fraternal-twin-fock",
        label="B |n+1,n>",
        g2=lambda n: (3.0 * n**2 - 2.0 * n - 1.0) / (2.0 * n**2),
        g2_text="(3 nbar^2 - 2 nbar - 1)/(2 nbar^2)",
        g2_ab=lambda n: (n - 1.0) ** 2 / (2.0 * n**2),
        g2_ab_text="(nbar - 1)^2/(2 nbar^2)",
        qfi=lambda n: (n * (n + 2.0) - 1.0) / 2.0,
        qfi_text="(nbar (nbar + 2) - 1)/2",
    ),
    RowForms(
        family="coherent",
        label="|alpha/sqrt2, -i alpha/sqrt2>",
        g2=lambda n: 1.0,
        g2_text="1",
        g2_ab=lambda n: 1.0,
        g2_ab_text="1",
        qfi=lambda n: n,
        qfi_text="nbar",
    ),
    RowForms(
        family="separable-coherent-probe",
        label="B |n,0>",
        g2=lambda n: 1.0 - 1.0 / n,
        g2_text="1 - 1/nbar",
        g2_ab=lambda n: 1.0 - 1.0 / n,
        g2_ab_text="1 - 1/nbar",
        qfi=lambda n: n,
        qfi_text="nbar",
    ),
    RowForms(
        family="two-mode-squeezed-vacuum",
        label="exp(chi (adag bdag - a b)) |0,0>",
        g2=lambda n: 4.0,
        g2_text="4",
        g2_ab=lambda n: 4.0 + 2.0 / n,
        g2_ab_text="4 + 2/nbar",
        qfi=lambda n: 0.0,
        qfi_text="0",
    ),
    RowForms(
        family="fock-pair",
        label="|n,n>",
        g2=lambda n: 1.0 - 2.0 / n,
        g2_text="1 - 2/nbar",
        g2_ab=lambda n: 1.0,
        g2_ab_text="1",
        qfi=lambda n: 0.0,
        qfi_text="0",
    ),
)
