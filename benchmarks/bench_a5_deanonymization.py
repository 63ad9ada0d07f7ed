"""A5 (ablation) — §6's deanonymization comparison.

"Another way to eliminate these traffic-analysis attacks would be for the
user to connect to a CDN distributing fixed-size webpages (similar to
lightweb) via an anonymizing proxy. A serious drawback of this approach is
that the CDN knows all webpage requests for many users and so can run a
deanonymization attack to map users to requests [43, 44]. The ZLTP
protocol defends against both traffic-analysis and deanonymization
attacks."

We run the SimAttack-style profile-linking attacker against both designs.
"""

from benchmarks.conftest import report
from repro.netsim.deanon import run_linking_experiment

N_USERS = 12


def test_a5_proxy_design_fails(benchmark):
    accuracy = benchmark(run_linking_experiment, N_USERS, 200, 3, 2, True, 7)
    report("A5: CDN-visible requests (fixed-size pages over a proxy)", [
        ("linking accuracy", f"{accuracy:.1%}"),
        ("chance", f"{1 / N_USERS:.1%}"),
        ("paper's verdict", "'a serious drawback' — the CDN deanonymizes"),
    ])
    assert accuracy > 0.8


def test_a5_zltp_resists(benchmark):
    accuracy = benchmark(run_linking_experiment, N_USERS, 200, 3, 2, False, 7)
    report("A5b: opaque ZLTP requests", [
        ("linking accuracy (volume only)", f"{accuracy:.1%}"),
        ("chance", f"{1 / N_USERS:.1%}"),
        ("residual signal", "request volume (the §2.1 non-goal), not identity"),
    ])
    assert accuracy < 0.45


def test_a5_cover_traffic_removes_residual_volume(benchmark):
    """Composing the A4 fixed fetch grid removes even the volume signal:
    every user emits the same number of requests per epoch."""
    import numpy as np

    from repro.netsim.deanon import ProfileLinkingAttack, make_population

    rng = np.random.default_rng(11)
    users = make_population(N_USERS, 200, seed=12)
    grid_requests = 64  # the schedule's fixed daily page-view count

    def run():
        attacker = ProfileLinkingAttack(200, observe_pages=False)
        for user in users:
            for _ in range(3):
                # Under the schedule the observable stream is exactly the
                # grid: fixed length, opaque contents.
                attacker.observe_training(user.user_id, [0] * grid_requests)
        trials = [(user.user_id, [0] * grid_requests) for user in users]
        return attacker.accuracy(trials)

    accuracy = benchmark(run)
    report("A5d: ZLTP + the A4 cover-traffic schedule", [
        ("linking accuracy", f"{accuracy:.1%}"),
        ("chance", f"{1 / N_USERS:.1%}"),
        ("note", "fixed grid ⇒ identical volume ⇒ nothing left to link"),
    ])
    assert accuracy <= 1 / N_USERS + 0.01


def test_a5_gap(benchmark):
    def both():
        return (run_linking_experiment(N_USERS, 200, 3, 2, True, 9),
                run_linking_experiment(N_USERS, 200, 3, 2, False, 9))

    proxy, zltp = benchmark(both)
    report("A5c: the design gap", [
        ("proxy-design linking", f"{proxy:.1%}"),
        ("ZLTP linking", f"{zltp:.1%}"),
        ("ratio", f"{proxy / max(zltp, 1e-9):.1f}x"),
    ])
    assert proxy > 2 * zltp
