"""Correctness gates on the outputs of one benchmark run.

Every gate returns a list of failure messages; an empty list is a pass.
Standard library only, so the runner can check outputs without importing
the package under test.
"""

from __future__ import annotations

import json
import math

import spec

# tolerances of tests/test_branching.py and of the verify suite's giant checks
CONSTANT_TOL = 1e-9
PARETO_Q_TOL = 5e-3
WEAK_FRACTION_TOL = 0.01
STRONG_FRACTION_TOL = 0.015
ARC_COUNT_SDS = 6.0


def exit_codes(codes: dict[str, int]) -> list[str]:
    return [f"{call}: exit code {code}" for call, code in codes.items() if code != 0]


def repeated(hashes: list[str], what: str) -> list[str]:
    """Outputs of one seed must repeat byte for byte."""
    if len(set(hashes)) > 1:
        return [f"{what}: output bytes differ across repetitions of one seed"]
    return []


def edge_list_summary(text: str) -> tuple[dict[str, str], int, int]:
    """(header key=value pairs, total multiplicity, malformed row count)."""
    header: dict[str, str] = {}
    total = malformed = 0
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key.strip()] = value.strip()
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            malformed += 1
            continue
        total += int(parts[2])
    return header, total, malformed


def large_graph(
    edge_text: str,
    components: dict,
    stats: dict,
    n: int,
    expected_arcs: float,
    prediction: dict,
) -> list[str]:
    """Gates on one sample -> components -> stats pass.

    ``expected_arcs`` is the Poisson mean (sum w)^2 / (mu n) of the total
    arc count and ``prediction`` the plain-configuration survival report.
    """
    failures = []
    header, arcs, malformed = edge_list_summary(edge_text)
    if header.get("n") != str(n):
        failures.append(f"edge list header declares n={header.get('n')}, expected {n}")
    if malformed:
        failures.append(f"edge list has {malformed} malformed rows")
    if abs(arcs - expected_arcs) > ARC_COUNT_SDS * math.sqrt(expected_arcs):
        failures.append(
            f"edge list holds {arcs} arcs, Poisson mean {expected_arcs:.1f} is more than"
            f" {ARC_COUNT_SDS:g} sd away"
        )
    if stats.get("n") != n or stats.get("total_arcs") != arcs:
        failures.append(
            f"stats reports n={stats.get('n')}, {stats.get('total_arcs')} arcs;"
            f" the edge list has n={n}, {arcs} arcs"
        )
    if (stats.get("degree_fit") or {}).get("passed") is not True:
        failures.append("stats degree_fit did not pass")
    weak = components.get("largest_weak", 0) / n
    if abs(weak - prediction["zeta_weak"]) > WEAK_FRACTION_TOL:
        failures.append(f"largest_weak/n={weak:.4f} vs zeta_weak={prediction['zeta_weak']:.4f}")
    strong = components.get("largest_strong", 0) / n
    if abs(strong - prediction["pi"]) > STRONG_FRACTION_TOL:
        failures.append(f"largest_strong/n={strong:.4f} vs pi={prediction['pi']:.4f}")
    return failures


def scaling(outputs: dict[int, str]) -> list[str]:
    """``scaling --json`` outputs keyed by thread count."""
    texts = list(outputs.values())
    failures = []
    if any(t != texts[0] for t in texts[1:]):
        failures.append(f"scaling output differs between thread counts {sorted(outputs)}")
    try:
        medians = json.loads(texts[0])["medians"]
        weak = medians["weak"]
        for stat in ("strong", "forward", "constituent"):
            for size, (value, bound) in enumerate(zip(medians[stat], weak)):
                if value > bound:
                    failures.append(f"size #{size}: median {stat} {value} > median weak {bound}")
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"scaling output is not the expected JSON: {exc!r}")
    return failures


def zeta_relative_errors(reports: dict[str, dict], oracles: dict[str, tuple]) -> dict[str, float]:
    """|zeta_f - oracle| / oracle per case."""
    return {
        case: abs(reports[case]["zeta_f"] - oracles[case][1]) / oracles[case][1]
        for case in reports
    }


def survival_rel_err(errors: dict[str, float]) -> float:
    """The largest relative error over the non-degenerate cases."""
    return max(errors[case] for case, _, _, oracle in spec.PREDICTION_CASES if oracle[0] != "constant")


def predictions(reports: dict[str, dict], oracles: dict[str, tuple]) -> list[str]:
    """Constant(2) to 1e-9 and Pareto(3.5, 1) mirrored-sum q to 5e-3.

    The near-critical cases are timed and their error reported, but not
    gated: the fixed-point solver's error there is a known defect.
    """
    failures = []
    const = reports["constant-mirrored-sum"]
    q, zeta = oracles["constant-mirrored-sum"]
    if abs(const["q_f"] - q) > CONSTANT_TOL or abs(const["zeta_f"] - zeta) > CONSTANT_TOL:
        failures.append(f"constant:2 q_f={const['q_f']!r} vs brentq oracle {q!r}")
    pareto = reports["pareto-mirrored-sum"]
    q = oracles["pareto-mirrored-sum"][0]
    if abs(pareto["q_f"] - q) > PARETO_Q_TOL:
        failures.append(f"pareto mirrored-sum q_f={pareto['q_f']!r} vs quad oracle {q!r}")
    return failures


def verify(payload: dict) -> list[str]:
    """A ``verify`` payload: ``all_pass`` set, and no check failed."""
    checks = payload.get("checks") or []
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if payload.get("all_pass") is not True or failed or not checks:
        return [f"verify: all_pass={payload.get('all_pass')!r}, failed checks {failed}"]
    return []


def small_graphs(totals: dict[str, tuple[int, int]], means: dict[str, float]) -> list[str]:
    """Mean total arc count per call kind within 6 sd of its Poisson mean.

    ``totals`` maps a call kind to (graphs drawn, summed arc count).
    """
    failures = []
    for kind, (graphs, arcs) in totals.items():
        mean = means[kind]
        if graphs == 0 or abs(arcs / graphs - mean) > ARC_COUNT_SDS * math.sqrt(mean / graphs):
            failures.append(f"{kind}: {arcs} arcs in {graphs} graphs, Poisson mean {mean} each")
    return failures


def replay_matches(cli_outputs: dict[str, str], replay_outputs: dict[str, str]) -> list[str]:
    """The traced replay must reproduce each CLI output byte for byte."""
    return [
        f"replayed {name} output differs from the CLI's"
        for name, digest in cli_outputs.items()
        if replay_outputs.get(name) != digest
    ]
