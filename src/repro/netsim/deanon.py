"""The §6 deanonymization argument, as an executable experiment.

Related work dismisses a cheaper design — fixed-size pages fetched through
an anonymizing proxy: "A serious drawback of this approach is that the CDN
knows all webpage requests for many users and so can run a deanonymization
attack to map users to requests [43, 44]. The ZLTP protocol defends
against both traffic-analysis and deanonymization attacks."

We model the attack the citations describe (SimAttack-style profile
linking): users have stable interest profiles; the CDN observes each
(pseudonymous) session's request stream and links sessions across epochs
by profile similarity, stripping the proxy's anonymity. Under the proxy
design the CDN sees *page identities*, so linking works; under ZLTP it
sees only opaque PIR queries, so the best it can use is request *counts* —
and linking collapses toward chance. Benchmark A5 runs both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.workloads.zipf import ZipfPopularity


@dataclass(frozen=True)
class UserModel:
    """A user's stable browsing profile.

    Attributes:
        user_id: identity the attacker tries to recover.
        interest_weights: unnormalised preference over pages.
        requests_per_epoch: mean requests each observation epoch.
    """

    user_id: int
    interest_weights: np.ndarray
    requests_per_epoch: float

    def sample_epoch(self, rng: np.random.Generator) -> List[int]:
        """One epoch of page requests (page indices)."""
        count = max(1, int(rng.poisson(self.requests_per_epoch)))
        probs = self.interest_weights / self.interest_weights.sum()
        return list(rng.choice(len(probs), size=count, p=probs))


def make_population(n_users: int, n_pages: int, seed: int = 0,
                    zipf_exponent: float = 1.2) -> List[UserModel]:
    """Users with distinct Zipf-over-random-permutation interests."""
    if n_users < 2 or n_pages < 2:
        raise ReproError("need at least 2 users and 2 pages")
    rng = np.random.default_rng(seed)
    base = ZipfPopularity(n_pages, zipf_exponent).probabilities
    users = []
    for user_id in range(n_users):
        permutation = rng.permutation(n_pages)
        weights = base[np.argsort(permutation)]
        users.append(UserModel(
            user_id=user_id,
            interest_weights=weights,
            requests_per_epoch=float(rng.uniform(30, 80)),
        ))
    return users


def _page_histogram(requests: Sequence[int], n_pages: int) -> np.ndarray:
    histogram = np.zeros(n_pages, dtype=np.float64)
    for page in requests:
        histogram[page] += 1
    return histogram


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b) / (na * nb)


class ProfileLinkingAttack:
    """The CDN-side linking attacker of [43, 44].

    Training epoch: the attacker observes every user's request stream with
    known identities (e.g. before they adopted the proxy). Attack epoch:
    streams arrive under fresh pseudonyms; the attacker matches each to
    the most similar training profile.
    """

    def __init__(self, n_pages: int, observe_pages: bool):
        """Create an attacker.

        Args:
            n_pages: universe page count.
            observe_pages: True models the proxy design (the CDN sees which
                page each request was for); False models ZLTP (requests are
                opaque — only their count is visible).
        """
        self.n_pages = n_pages
        self.observe_pages = observe_pages
        self._profiles: Dict[int, np.ndarray] = {}
        self._epochs_seen: Dict[int, int] = {}

    def _featurise(self, requests: Sequence[int]) -> np.ndarray:
        if self.observe_pages:
            return _page_histogram(requests, self.n_pages)
        # ZLTP view: an opaque request stream. The only usable feature is
        # volume.
        return np.array([float(len(requests))])

    def observe_training(self, user_id: int, requests: Sequence[int]) -> None:
        """Record one identified epoch for a user."""
        features = self._featurise(requests)
        if user_id in self._profiles:
            self._profiles[user_id] = self._profiles[user_id] + features
            self._epochs_seen[user_id] += 1
        else:
            self._profiles[user_id] = features
            self._epochs_seen[user_id] = 1

    def link(self, requests: Sequence[int]) -> int:
        """Guess which known user produced a pseudonymous stream."""
        if not self._profiles:
            raise ReproError("attacker has no training observations")
        target = self._featurise(requests)
        if self.observe_pages:
            return max(self._profiles,
                       key=lambda uid: _cosine(self._profiles[uid], target))
        # Count-only: nearest per-epoch mean volume — the strongest thing
        # an attacker can do with opaque ZLTP streams.
        return min(self._profiles,
                   key=lambda uid: abs(
                       float(self._profiles[uid][0]) / self._epochs_seen[uid]
                       - float(target[0])))

    def accuracy(self, epochs: List[Tuple[int, Sequence[int]]]) -> float:
        """Fraction of pseudonymous epochs linked to the right user."""
        if not epochs:
            raise ReproError("no attack epochs supplied")
        hits = sum(1 for user_id, requests in epochs
                   if self.link(requests) == user_id)
        return hits / len(epochs)


def run_linking_experiment(n_users: int = 12, n_pages: int = 200,
                           training_epochs: int = 3,
                           attack_epochs: int = 2,
                           observe_pages: bool = True,
                           seed: int = 0) -> float:
    """End-to-end linking accuracy under one observation model."""
    rng = np.random.default_rng(seed)
    users = make_population(n_users, n_pages, seed=seed + 1)
    attacker = ProfileLinkingAttack(n_pages, observe_pages=observe_pages)
    for user in users:
        for _ in range(training_epochs):
            attacker.observe_training(user.user_id, user.sample_epoch(rng))
    trials = []
    for user in users:
        for _ in range(attack_epochs):
            trials.append((user.user_id, user.sample_epoch(rng)))
    return attacker.accuracy(trials)


__all__ = [
    "UserModel",
    "make_population",
    "ProfileLinkingAttack",
    "run_linking_experiment",
]
