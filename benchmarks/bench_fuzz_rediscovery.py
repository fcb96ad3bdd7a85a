"""Seed-budget-to-rediscovery: coverage-guided vs blind fuzzing.

Two Table-2-style bugs are seeded behind multi-step mutation walks —
the noisy-neighbor behaviour (§6.2.2: the fuzzer must grow the
connection count from 2 and then spread simultaneous drops) and a
multi-counter inconsistency (§6.2.4: a single mismatch scores below
the threshold, so the fuzzer must compose event injections). For each
bug the same 10 fuzzer seeds hunt with the blind GA and with
coverage-guided fitness; the budget is the iteration of the first
finding (censored at the cap). Guided must rediscover each bug in
fewer total iterations — structural feedback keeps low-scoring
stepping stones in the pool that the blind GA discards.
"""

import contextlib

from conftest import emit

from repro import observe, quick_config
from repro.core.fuzz import LuminaFuzzer, ScoreWeights

CAP = 60
SEEDS = range(1, 11)

#: name -> (base config, target-style weights, anomaly threshold).
BUGS = {
    "noisy-neighbor/cx4": (
        quick_config(nic="cx4", verb="read", num_msgs=2,
                     message_size=10240, num_connections=2, seed=1),
        ScoreWeights(innocent_inflation=10.0, unexplained_discards=4.0,
                     counter_inconsistency=0.5, mct_inflation=0.5),
        8.0),
    "counter-combo/e810": (
        quick_config(nic="e810", verb="write", num_msgs=2,
                     message_size=10240, num_connections=2, seed=1),
        ScoreWeights(counter_inconsistency=8.0, mct_inflation=0.2,
                     innocent_inflation=0.2),
        14.0),
}


def budget_to_discovery(base, weights, threshold, seed, guided):
    """Iterations until the first finding; CAP + 1 when censored."""
    session = (observe.session(metrics=False) if guided
               else contextlib.nullcontext())
    with session:
        fuzzer = LuminaFuzzer(base, seed=seed, weights=weights,
                              anomaly_threshold=threshold)
        report = fuzzer.run(iterations=CAP, stop_on_first=True,
                            coverage_fitness=guided)
        return report.iterations_run if report.findings else CAP + 1


def sweep(base, weights, threshold, guided):
    return [budget_to_discovery(base, weights, threshold, seed, guided)
            for seed in SEEDS]


def test_fuzz_rediscovery_budget(benchmark):
    lines = [f"{'seeded bug':<22s}{'seed':>6s}{'blind':>8s}{'guided':>8s}",
             "-" * 44]
    totals = {}
    for name, (base, weights, threshold) in BUGS.items():
        blind = sweep(base, weights, threshold, guided=False)
        guided = sweep(base, weights, threshold, guided=True)
        for seed, b, g in zip(SEEDS, blind, guided):
            cell_b = str(b) if b <= CAP else f">{CAP}"
            cell_g = str(g) if g <= CAP else f">{CAP}"
            lines.append(f"{name:<22s}{seed:>6d}{cell_b:>8s}{cell_g:>8s}")
        totals[name] = (sum(blind), sum(guided))
        lines.append(f"{name:<22s}{'total':>6s}"
                     f"{totals[name][0]:>8d}{totals[name][1]:>8d}")
        lines.append("-" * 44)
    emit("fuzz_rediscovery_budget", lines)

    # The acceptance bar: for every seeded bug, the guided campaign
    # spends strictly fewer total iterations than the blind GA.
    for name, (blind_total, guided_total) in totals.items():
        assert guided_total < blind_total, (
            f"{name}: guided {guided_total} !< blind {blind_total}")

    base, weights, threshold = BUGS["noisy-neighbor/cx4"]
    benchmark.pedantic(budget_to_discovery,
                       args=(base, weights, threshold, 3, True),
                       rounds=1, iterations=1)
