"""Section bundles on components and their dimension counts.

Each component of a degenerate fiber carries the twisted pluricanonical
bundle: m times the canonical class, plus (m-1) times every node, plus the
marks.  Sections of the limit problem restrict to sections of this bundle,
so its h^0 drives every vertex mass below.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .model import DualGraphModel

__all__ = ["BundleDescriptor", "bundle_for", "h0"]


@dataclass(frozen=True)
class BundleDescriptor:
    """Numerical data of the twisted bundle on one component."""

    component: str
    m: int
    genus: int
    valency: int
    mark_degree: int

    @property
    def degree(self) -> int:
        return (self.m * (2 * self.genus - 2)
                + (self.m - 1) * self.valency
                + self.mark_degree)


def bundle_for(model: DualGraphModel, cid: str) -> BundleDescriptor:
    c = model.component(cid)
    return BundleDescriptor(
        component=cid,
        m=model.params.m,
        genus=c.genus,
        valency=model.valency(cid),
        mark_degree=model.mark_degree(cid),
    )


def h0(bundle: BundleDescriptor) -> int:
    """Dimension of the space of sections.

    Genus 0 counts directly; genus 1 needs positive degree (degree 0 only
    happens for the excluded unmarked elliptic shape); genus >= 2 bundles
    always have degree past 2g-2, so Riemann-Roch applies with vanishing h^1.
    """
    d = bundle.degree
    g = bundle.genus
    if g == 0:
        return max(d + 1, 0)
    if g == 1:
        if d == 0:
            raise InternalConsistencyError(
                f"component {bundle.component}: genus-1 bundle of degree 0 "
                "(excluded component shape)"
            )
        if d < 0:
            raise InternalConsistencyError(
                f"component {bundle.component}: genus-1 bundle of negative degree"
            )
        return d
    if d <= 2 * g - 2:
        raise InternalConsistencyError(
            f"component {bundle.component}: unexpected special bundle "
            f"(genus {g}, degree {d})"
        )
    return d - g + 1

