"""Local ad targeting (§3.4) — personalisation without server-side state.

"Lightweb is compatible with online ads. The simplest way to achieve this is
to have a publisher embed subject-relevant ads directly into their site's
static content. Ad targeting is also possible in principle: the site's code
could fetch different ads from the CDN based on the user's local state
(browsing history, postal code, inferred interests, etc.)."

The publisher ships an :class:`AdInventory` inside a data blob; the browser
selects one ad *locally* against the user's stored interest profile, so the
targeting signal never leaves the client. The browser injects the winner as
``selected_ad`` into the fetched data, where render templates can reference
it (``{data0.selected_ad}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Ad:
    """One advertisement: display text plus targeting keywords."""

    ad_id: str
    text: str
    keywords: Sequence[str] = ()


class AdInventory:
    """A publisher's embeddable ad inventory."""

    def __init__(self, ads: Sequence[Ad]):
        self.ads = list(ads)

    def to_payload(self) -> List[Dict[str, Any]]:
        """Encode as the JSON list a data blob carries under ``"ads"``."""
        return [
            {"id": ad.ad_id, "text": ad.text, "keywords": list(ad.keywords)}
            for ad in self.ads
        ]

    @classmethod
    def from_payload(cls, payload: Any) -> "AdInventory":
        """Parse an inventory from fetched blob JSON (tolerant of junk)."""
        ads = []
        if isinstance(payload, list):
            for entry in payload:
                if not isinstance(entry, dict):
                    continue
                ads.append(
                    Ad(
                        ad_id=str(entry.get("id", "")),
                        text=str(entry.get("text", "")),
                        keywords=tuple(
                            str(k) for k in entry.get("keywords", []) or []
                        ),
                    )
                )
        return cls(ads)


def select_ad(inventory: AdInventory, interests: Sequence[str]) -> Optional[Ad]:
    """Pick the best-matching ad for a local interest profile.

    Scoring is keyword overlap; ties break deterministically by ad id so the
    choice is reproducible. With no interests (or no overlap) the first ad
    is the untargeted fallback.

    Returns:
        The chosen :class:`Ad`, or None for an empty inventory.
    """
    if not inventory.ads:
        return None
    interest_set = {interest.lower() for interest in interests}

    def score(ad: Ad):
        overlap = len(interest_set & {kw.lower() for kw in ad.keywords})
        return (-overlap, ad.ad_id)

    best = min(inventory.ads, key=score)
    return best


__all__ = ["Ad", "AdInventory", "select_ad"]
