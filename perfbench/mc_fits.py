"""mc_fits: a Monte Carlo study calling the fitting library in a loop, in one process.

Set-up draws the inputs; the timed phase only fits. One round is a fixed mix:

* the C7 team-side shape, ``team_side_effects`` on 1,230 simulated games with
  a 1.5-foul home shift for T05, the paired T05:home target and the
  disparity outcome (~60 columns), once on each of 20 replicates;
* the Baseline ref-team shape, ``ref_team_residual_effects`` on a
  3,690-game panel (70 referees, 30 teams, one injected pair) for that pair
  and the panel's most frequent other pair, both outcomes (~130 columns),
  on one of two panels in turn.

Almost all the time is in ``inference``; ``ingest``, ``metrics``,
``outliers`` and ``figures`` are never reached. A run makes at least 100
team-side fits. Correctness: each fit's kept column list, target estimates
and standard errors match the values recorded at the seed commit, within
1e-8 (the C5 bound).
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import tracer
from .common import BENCH, CORPUS_SEEDS, Outcome, closed_loop, p90

REFERENCE = BENCH / "reference" / "mc_fits.json"
# One draw takes about 1.2 s, and single draws swing by a third on a shared
# machine; the median of nine damps that within a run.
SETUP_REPEATS = 9
TOLERANCE = 1e-8
MIN_TEAM_SIDE_FITS = 100


@dataclass(frozen=True)
class Study:
    """Shapes of the two fits; the defaults are the C7 and Baseline shapes."""

    team_games: int = 1230
    panel_games: int = 3690
    teams: int = 30
    referees: int = 70
    team_side_per_round: int = 20
    panels: int = 2
    home_shift: float = 1.5
    pair_shift: float = 0.05
    corpus_seeds: int = CORPUS_SEEDS


BASELINE = Study()
SHIFTED_TEAM = "T05"
INJECTED_PAIR = ("Ref01", "T01")


def make_inputs(study: Study, cseed: int):
    """Team-side row sets and ref-team panels (with their target pairs) for one seed."""
    from rimkit import synth

    team_sets = [
        synth.simulate_team_side_rows(
            np.random.default_rng([cseed, 1, j]),
            n_games=study.team_games,
            n_teams=study.teams,
            home_disparity_shift={SHIFTED_TEAM: study.home_shift},
        )
        for j in range(study.team_side_per_round)
    ]
    panels = []
    for j in range(study.panels):
        panel = synth.simulate_ref_team_panel(
            np.random.default_rng([cseed, 2, j]),
            n_games=study.panel_games,
            n_teams=study.teams,
            n_referees=study.referees,
            pair_shift={INJECTED_PAIR: study.pair_shift},
        )
        counts = Counter((r.referee, r.team) for r in panel)
        other = min((k for k in counts if k != INJECTED_PAIR), key=lambda k: (-counts[k], k))
        panels.append((panel, [INJECTED_PAIR, other]))
    return team_sets, panels


def signature(fits) -> dict:
    """What the check compares: kept columns (hashed) and every target's estimate and SE."""
    out = {}
    for outcome, fit in sorted(fits.items()):
        targets = {
            t: [float(fit.estimates[i]), float(fit.se[i])]
            for i, t in enumerate(fit.terms)
            if "[" in t or t.startswith("pair_")
        }
        out[outcome] = {
            "columns_sha256": hashlib.sha256("\n".join(fit.terms).encode()).hexdigest(),
            "targets": targets,
        }
    return out


def mismatch(got: dict, want: dict) -> str | None:
    if got.keys() != want.keys():
        return f"outcomes {sorted(got)} != {sorted(want)}"
    for outcome, w in want.items():
        g = got[outcome]
        if g["columns_sha256"] != w["columns_sha256"]:
            return f"{outcome}: kept columns differ"
        if g["targets"].keys() != w["targets"].keys():
            return f"{outcome}: targets {sorted(g['targets'])} != {sorted(w['targets'])}"
        for term, (est, se) in w["targets"].items():
            d_est = abs(g["targets"][term][0] - est)
            d_se = abs(g["targets"][term][1] - se)
            if not (d_est < TOLERANCE and d_se < TOLERANCE):
                return f"{outcome} {term}: |d_est|={d_est:.3g} |d_se|={d_se:.3g}"
    return None


def fit_team_side(rows):
    from rimkit import inference

    return inference.team_side_effects(
        rows,
        [inference.TeamSideTarget(SHIFTED_TEAM, "home")],
        outcomes=("disparity",),
        target_form="paired",
    )


def fit_ref_team(panel, pairs):
    from rimkit import inference

    return inference.ref_team_residual_effects(panel, pairs)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def run(seed: int, seconds: float, trace: bool, work, *,
        study: Study = BASELINE, reference: dict | None = None) -> Outcome:
    reference = load_reference() if reference is None else reference
    cseed = seed % study.corpus_seeds
    want = reference["seeds"].get(str(cseed))
    if reference["study"] != json.loads(json.dumps(asdict(study))) or want is None:
        raise SystemExit(f"no reference recorded for this study at corpus seed {cseed}")
    out = Outcome(info={"corpus_seed": cseed, "study": asdict(study)})
    tr = tracer.Tracer("setup") if trace else None
    installed = tracer.install(tr) if trace else []
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            team_sets = panels = None  # every draw starts from the same heap
            start = time.perf_counter()
            team_sets, panels = make_inputs(study, cseed)
            setups.append(time.perf_counter() - start)
        if trace:
            out.setup_spans, tr.spans[:] = list(tr.spans), []
        out.info["inputs_sha256"] = hashlib.sha256(
            repr([(r.game_id, r.team, r.disparity) for r in team_sets[0]]).encode()
        ).hexdigest()

        team_ms: list[float] = []
        ref_ms: list[float] = []

        def one_fit(i: int, kind: str, j: int, fn, *args, latencies=None) -> float:
            if tr is not None:
                tr.invocation = f"r{i}.{kind}{j}"
            start = time.perf_counter()
            try:
                fits = fn(*args)
            except Exception as e:  # a fit that raises is a failed operation
                elapsed = time.perf_counter() - start
                out.op(False, f"{kind}{j} raised {type(e).__name__}: {e}")
                return elapsed
            elapsed = time.perf_counter() - start
            if latencies is not None:
                latencies.append(elapsed * 1e3)
            problem = mismatch(signature(fits), want[kind][j])
            out.op(problem is None, f"{kind}{j}: {problem}")
            return elapsed

        def one_round(i: int, timed: bool) -> float:
            total = 0.0
            for j, rows in enumerate(team_sets):
                total += one_fit(i, "team_side", j, fit_team_side, rows,
                                 latencies=team_ms if timed else None)
            p = i % len(panels)
            total += one_fit(i, "ref_team", p, fit_ref_team, *panels[p],
                             latencies=ref_ms if timed else None)
            return total

        if tr is not None:
            tracer.uninstall(installed)
            installed = []
        min_rounds = -(-MIN_TEAM_SIDE_FITS // study.team_side_per_round)
        budget = seconds / 2 if trace else seconds
        rounds = closed_loop(budget, min_rounds, lambda i: one_round(i, True))
        out.end_to_end = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if trace:
            installed = tracer.install(tr)
            traced = closed_loop(budget, 1, lambda i: one_round(i, False))
            out.timed_spans = tr.spans
            out.traced_rounds = len(traced)
            out.layer_values = {
                "inference.team_side_fit_p50_ms": statistics.median(team_ms),
                "inference.team_side_fit_p90_ms": p90(team_ms),
                "inference.ref_team_fit_p50_ms": statistics.median(ref_ms),
                "trace.overhead_ratio": statistics.median(traced) / statistics.median(rounds),
            }
    finally:
        tracer.uninstall(installed)
    return out


def record(study: Study = BASELINE) -> dict:
    """Reference signatures of every replicate for each corpus seed."""
    recorded = {}
    for cseed in range(study.corpus_seeds):
        team_sets, panels = make_inputs(study, cseed)
        recorded[str(cseed)] = {
            "team_side": [signature(fit_team_side(rows)) for rows in team_sets],
            "ref_team": [signature(fit_ref_team(panel, pairs)) for panel, pairs in panels],
        }
    return json.loads(json.dumps({"study": asdict(study), "seeds": recorded}))
