"""The design rules that a test of behaviour cannot see, as one table.

Each row names a rule, the files it reads, what it looks for there and the
message a failure prints: no dense linear algebra and no assert in `src/`,
one seeding path, one thread, one pivot recurrence, one table row per
experiment, outage scheme, adaptive rule and config field, one check of a
real number, and a README short enough to read.  A rule
fails on every line that matches its pattern, `path:line: text`.  Only ``*.py`` files are
read under `src/succrelay`, so a stale ``.pyc`` cannot match.  Each row
also carries a line that breaks it; `test_rule_catches_its_example` plants
that line, so a pattern that matches nothing fails too.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "succrelay"


def grep(pattern: str, allowed: str | None = None, exempt: str | None = None):
    """The check: each line with a match of ``pattern`` that does not match
    ``allowed`` in full, in every file but ``exempt``."""

    def check(path: Path, text: str) -> list[str]:
        if exempt and path.name == exempt:
            return []
        return [
            f"{path.relative_to(ROOT)}:{number}: {line}"
            for number, line in enumerate(text.splitlines(), 1)
            for found in re.finditer(pattern, line)
            if not (allowed and re.fullmatch(allowed, found.group()))
        ]

    return check


def readable(path: Path, text: str) -> list[str]:
    """README has at most 1,600 words and no line over 400 characters."""
    words = len(text.split())
    wrong = [f"{path.name} has {words} words, more than 1,600"] if words > 1600 else []
    return wrong + [
        f"{path.name}:{number}: {len(line)} characters"
        for number, line in enumerate(text.splitlines(), 1)
        if len(line) > 400
    ]


PY = sorted(SRC.rglob("*.py"))

# rule -> (the files it reads, the check, its message, a line that breaks it)
RULES = {
    "Dense linear algebra stays in the tests": (
        PY,
        grep(r"np\.linalg|numpy\.linalg|from numpy import linalg"),
        "src/succrelay must not call numpy.linalg; dense oracles live in tests/",
        "x = np.linalg.solve(a, b)",
    ),
    "Invariants are named errors, not asserts": (
        PY,
        grep(r"^\s*assert\b"),
        "src/succrelay must not use assert; python -O strips it, raise InvariantError",
        "    assert x >= 0",
    ),
    "One seeding path": (
        PY,
        grep(r"SeedSequence|np\.random\.|numpy\.random", exempt="channel.py"),
        "randomness comes from succrelay.channel.trial_rng; only channel.py names np.random",
        "rng = np.random.default_rng(1)",
    ),
    "No thread or process pool": (
        PY,
        grep(r"^\s*(import|from)\s+(threading|concurrent|multiprocessing)\b"),
        "src/succrelay runs on one thread; determinism must not rest on a pool",
        "from concurrent.futures import ThreadPoolExecutor",
    ),
    "One definition per outage scheme": (
        [SRC / "outage.py"],
        grep(r'scheme ==|== "(successive|classic2)"'),
        "each outage scheme is one row of outage.SCHEMES; outage.py must not branch on its name",
        'if scheme == "classic2":',
    ),
    "One row per experiment": (
        PY,
        grep(r"\b(cfg|self)\.experiment\s*(==|!=)"),
        "each experiment is one row of experiments.EXPERIMENTS; src/ must not branch on its name",
        'if cfg.experiment == "gain_curve":',
    ),
    "One row per adaptive rule": (
        PY,
        grep(r"AdaptiveRule|rule is None|adaptive_rule\s*(==|!=)"),
        "each adaptive rule is one row of protocols.ADAPTIVE_RULES; src/ must not branch on it",
        'if cfg.adaptive_rule == "none":',
    ),
    "Slot terms by parity": (
        [SRC / "protocols.py"],
        grep(r"\brange\("),
        "each slot term is one (2, n) row per relay parity, gathered by np.arange(l) % 2; "
        "protocols.py must not loop over slots",
        "for k in range(l):",
    ),
    "One pivot recurrence": (
        PY,
        grep(r"\bq\s*\*=\s*t\b", exempt="mimolinalg.py"),
        "the log-det pivot step lives in mimolinalg._log_pivot_product alone, which writes "
        "every frame length off one pass; protocols.py loops over no frame length",
        "    q *= t",
    ),
    "One row per config field": (
        [SRC / "experiments.py"],
        grep(r"def validate\(|self\.(l|trials|seed|dmt_r)\b *[<>]"),
        "each config field is checked and stored from its experiments._FIELDS row; "
        "no validate() or per-field range if",
        "if self.trials < 1:",
    ),
    "Real numbers meet check_real": (
        PY,
        grep(r"numbers\.Real", exempt="mimolinalg.py"),
        "each real-number argument and field is checked by mimolinalg.check_real; only "
        "mimolinalg.py names numbers.Real",
        "if not isinstance(x, numbers.Real):",
    ),
    "The sampler returns arrays": (
        PY,
        grep(r"ChannelBatch"),
        "sample_realizations returns its normals as an array; channel.coefficients and "
        "channel.link_gains scale them",
        "class ChannelBatch:",
    ),
    "The geometry holds no cache": (
        [SRC / "channel.py"],
        grep(r"cached_property|_log_amplitudes|_LOG_AMPLITUDE_PER_DB"),
        "NetworkGeometry holds no derived state; channel.coefficients computes each amplitude "
        "where it scales",
        "    @cached_property",
    ),
    "Sweep trials fill one block": (
        [SRC / "experiments.py"],
        grep(r"np\.concatenate\("),
        "each one-trial sampler call draws into its row of one preallocated block (out=); "
        "experiments.py must not join per-trial arrays",
        "v = np.concatenate(parts)",
    ),
    "Flags come from _FIELDS": (
        [SRC / "cli.py"],
        grep(r"[\"']--?[a-z][a-z-]*[\"']", allowed=r"[\"']--(config|geometry|workers)[\"']"),
        "each config field's flags are in its experiments._FIELDS row; cli.py spells only "
        "--config, --geometry and --workers",
        'p.add_argument("--trials", type=int)',
    ),
    "README stays a reader's document": (
        [ROOT / "README.md"],
        readable,
        "README.md must have at most 1,600 words and no line over 400 characters; "
        "docstrings, tests and CHANGES.md hold the details",
        "word " * 1601,
    ),
}


@pytest.mark.parametrize("rule", RULES)
def test_rule_holds(rule):
    paths, check, message, _ = RULES[rule]
    found = [hit for path in paths for hit in check(path, path.read_text(encoding="utf-8"))]
    assert not found, "\n".join([message, *found])


@pytest.mark.parametrize("rule", RULES)
def test_rule_catches_its_example(rule):
    paths, check, _, example = RULES[rule]
    assert check(paths[0], example)
