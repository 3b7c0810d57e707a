"""The benchmark's workloads: the operations one pass runs, made from a seed.

An operation is one henon4 CLI command (run in-process through
``henon4.cli.main``) or one library call.  Every operation is expected to
succeed (exit code 0); the references in ``refs/`` record what this commit
actually does for each shipped seed.

The workload seed picks one of the shipped seeds (``seed % len(SHIPPED_SEEDS)``);
the chosen seed becomes the radial-search seed of the sweeps and the profile
seed of ``talenti-check``.  Nothing else depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("sweep", "large_alpha", "suite")
SHIPPED_SEEDS = tuple(range(10))

DEFAULT_GRID = "16,32,64,128,256,512"
LARGE_GRID = "2048,8192,32768,131072"
TALENTI_COUNT = 10

# Wall time of one untraced pass, in seconds, on the 2-vCPU VM that recorded
# the references, taken at the slow end of what that VM shows, so that a run
# does not take much longer than --seconds when the VM is slow.  A run makes a
# fixed number of passes derived from it (see `passes`), so that how many
# operations a run attempts, and how many fail, depend only on the workload,
# the seed and --seconds, and not on how fast the machine happened to be.
PASS_S = {"sweep": 14.0, "large_alpha": 16.0, "suite": 1.8}

# moser-blowup regimes documented by tests/test_acceptance.py (criterion 4),
# plus the Navier scan at alpha = 64, which exits 3 on the commit that
# introduced this benchmark and is kept so that its fix shows.
MOSER_SCANS = (
    ("navier", 0, 1.2, "1e-2:1e-10:decade"),
    ("navier", 4, 1.2, "1e-2:1e-10:decade"),
    ("navier", 0, 0.8, "1e-2:1e-10:decade"),
    ("navier", 4, 0.8, "1e-2:1e-10:decade"),
    ("dirichlet", 0, 1.2, "1e-46:1e-62:2decade"),
    ("dirichlet", 4, 1.2, "1e-46:1e-62:2decade"),
    ("dirichlet", 0, 0.8, "1e-6:1e-14:decade"),
    ("dirichlet", 4, 0.8, "1e-6:1e-14:decade"),
    ("navier", 64, 1.2, "1e-2:1e-12:decade"),
)
VERIFY_ALPHAS = (0, 4, 16)


@dataclass(frozen=True)
class Op:
    """One operation.  `label` keys the reference; a CLI op has `argv`
    (without --out-dir), a library op has `call`."""

    label: str
    argv: tuple = ()
    call: Optional[Callable[[], float]] = None

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else ""


def passes(workload: str, seconds: float) -> int:
    """Passes in a run of `seconds`: about `seconds` of work, at least two."""
    return max(2, round(seconds / PASS_S[workload]))


def shipped_seed(seed: int) -> int:
    return SHIPPED_SEEDS[seed % len(SHIPPED_SEEDS)]


def _sweeps(grid: str, seed: int) -> list:
    return [
        Op(
            f"symmetry-sweep m={m} seed={seed}",
            ("symmetry-sweep", "--sigma", "32pi2", "--m", str(m), "--alphas", grid, "--seed", str(seed)),
        )
        for m in (1, 2)
    ]


def _marshall_moser_ops(logtransform) -> list:
    def call(member):
        # the attribute is looked up at call time, so a traced binding is seen
        return lambda: logtransform.marshall_moser_integral(
            member.psi,
            cumulative=member.cumulative,
            l2_sq=member.l2_sq,
            support_hint=member.support_hint,
            breakpoints=member.breakpoints,
        )

    return [Op(f"marshall_moser_integral {m.name}", call=call(m)) for m in logtransform.marshall_moser_family()]


def build(workload: str, seed: int, modules: dict) -> list:
    """Operations of one pass of `workload` for the shipped seed `seed`."""
    if workload == "sweep":
        return _sweeps(DEFAULT_GRID, seed)
    if workload == "large_alpha":
        return _sweeps(LARGE_GRID, seed)
    if workload != "suite":
        raise ValueError(f"unknown workload {workload!r}")
    ops = [Op(f"verify-identities alpha={a}", ("verify-identities", "--alpha", str(a))) for a in VERIFY_ALPHAS]
    ops.append(Op("threshold-scan", ("threshold-scan",)))
    ops.append(
        Op(
            f"talenti-check seed={seed}",
            ("talenti-check", "--count", str(TALENTI_COUNT), "--seed", str(seed)),
        )
    )
    for bc, alpha, beta, eps in MOSER_SCANS:
        ops.append(
            Op(
                f"moser-blowup {bc} alpha={alpha} beta={beta} eps={eps}",
                ("moser-blowup", "--bc", bc, "--alpha", str(alpha), "--beta", str(beta), "--epsilons", eps),
            )
        )
    return ops + _marshall_moser_ops(modules["logtransform"])
