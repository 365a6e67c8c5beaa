"""The workloads: inputs made from a seed, the ops, their checks.

BENCHMARK.json lists membership_dense, closure_phase and cli_small;
gauge_fix runs by name only, because its ops fail at this commit.

Every op performs one library call (or one CLI command) and then its oracle
check, and returns the evidence the check looked at: a residual for the
numerical ops, the stdout bytes for CLI commands.  A check that rejects a result
the program returned without complaint raises ``WrongResult``; an exception
from the program itself propagates and is counted as a loud failure.

Ops come in cycles.  A cycle is the smallest repeating unit of a workload's op
mix, so the timed loop always stops at a cycle boundary and the mix of a run
never depends on where the clock ran out.
"""

from __future__ import annotations

import contextlib
import io
import os
import selectors
import subprocess
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import calibration
from superholonomy import cli, group, phase, superlie

# The group-law tolerance the CLI and the acceptance suite use for
# membership_defect.
MEMBERSHIP_TOL = 1e-10
# Bodies are double-precision products of O(1) matrices; anything larger than
# this is a wrong body, not rounding.
BODY_TOL = 1e-10
# gauge_fix_sigma's own default absolute tolerance on the chi residual.
GAUGE_TOL = 1e-10
# A child process that runs longer than this is killed, which stops the run.
CHILD_TIMEOUT_S = 60.0


class WrongResult(Exception):
    """The program returned a result that the op's oracle rejects."""

    def __init__(self, residual: float, detail: str):
        super().__init__(detail)
        self.residual = residual


@dataclass
class Op:
    op_id: str
    run: Callable[[], object]


def _check_member(grp, M, expected_body: np.ndarray | None = None) -> float:
    defect = grp.membership_defect(M)
    if not defect <= MEMBERSHIP_TOL:
        raise WrongResult(defect, f"membership defect {defect:.3e} > {MEMBERSHIP_TOL:.0e}")
    if expected_body is not None:
        err = float(np.abs(M.body() - expected_body).max())
        if not err <= BODY_TOL:
            raise WrongResult(err, f"body differs from the numpy body by {err:.3e}")
    return defect


# ----------------------------------------------------------------------
# child processes, read without threads
# ----------------------------------------------------------------------

@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    # the child's own calibration report: (kernel seconds, report seconds)
    calibration: tuple[float, float] | None


def run_child(argv: list[str], env: dict, ready_line: bool = False) -> ChildResult:
    """Run argv to completion and return its output and its calibration report.

    With ready_line, wall_s is the time until the child's first stdout line
    instead of its exit.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    deadline = start + CHILD_TIMEOUT_S
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    ready_at = None
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                        if ready_at is None and key.fileobj is proc.stdout and b"\n" in data:
                            ready_at = time.perf_counter()
                    else:
                        sel.unregister(key.fileobj)
    finally:
        for stream in chunks:
            stream.close()
        proc.wait()
    end = ready_at if ready_line and ready_at is not None else time.perf_counter()
    stderr = b"".join(chunks[proc.stderr])
    return ChildResult(proc.returncode, b"".join(chunks[proc.stdout]), stderr,
                       end - start, calibration.parse_child(stderr))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass
class Context:
    """What a workload needs from its surroundings to start child processes."""

    python: str
    env: dict


class Workload:
    name = ""
    why = ""
    # Highest tail percentile this workload's op count per run supports
    # (at least 10 samples beyond it, and inside one op class's share).
    tail_cap = 90.0
    # Cycles in one traced pass.
    pass_cycles = 1
    # (m, n) of every algebra the workload builds; (1, 1, "osp12") marks the
    # explicit osp(1|2) construction.
    algebras: tuple = ()
    params: dict = {}

    def setup(self, seed: int):
        """Build algebras and generate every input from the seed."""
        raise NotImplementedError

    def prepare(self, state, ctx: Context):
        """Work the main process does after setup and before timing (oracles)."""
        return state

    def start(self, state):
        """Fresh mutable run state; passes and the timed loop each start here."""
        return state

    def cycle(self, run, c: int) -> list[Op]:
        raise NotImplementedError

    def pass_ops(self, state) -> list[Op]:
        run = self.start(state)
        return [op for c in range(self.pass_cycles) for op in self.cycle(run, c)]


@dataclass
class _MembershipRun:
    grp: object
    pool: list
    rng: np.random.Generator
    seed: int
    samples: int = 0


class MembershipDense(Workload):
    name = "membership_dense"
    why = ("OSp(2|2) over B_6 with dense entries: products, inverses, conjugations, "
           "samples; where a Grassmann-kernel change shows most")
    tail_cap = 95.0
    pass_cycles = 1
    algebras = ((2, 1),)
    params = {"N": 6, "groups": ["OSp(2|2)"], "pool": 8}
    POOL = 8
    # Two of each cheap op per sample: product, inverse and conjugation take
    # 2/7 of the ops each, so the median sits inside the inverse share and the
    # tail inside the sample_member share whatever the op count.
    MIX = ("product", "inverse", "conjugate", "product", "inverse", "conjugate", "sample")

    def setup(self, seed):
        grp = group.OspGroup(2, 1, 6)
        grp.algebra()
        pool = tuple(grp.sample_member(np.random.default_rng([seed, 0, k]))
                     for k in range(self.POOL))
        return grp, pool, seed

    def start(self, state):
        grp, pool, seed = state
        return _MembershipRun(grp, list(pool), np.random.default_rng([seed, 1]), seed)

    def cycle(self, run, c):
        ops = []
        for pos, kind in enumerate(self.MIX):
            i, j = (int(v) for v in run.rng.integers(0, self.POOL, 2))
            ops.append(Op(f"c{c}.{pos}.{kind}", self._op(run, kind, i, j)))
        return ops

    @staticmethod
    def _op(run, kind, i, j):
        grp, pool = run.grp, run.pool

        def product():
            X, Y = pool[i], pool[j]
            return _check_member(grp, X @ Y, X.body() @ Y.body())

        def inverse():
            X = pool[i]
            return _check_member(grp, X.inverse(), np.linalg.inv(X.body()))

        def conjugate():
            X, Y = pool[i], pool[j]
            bx = X.body()
            return _check_member(grp, X @ Y @ X.inverse(), bx @ Y.body() @ np.linalg.inv(bx))

        def sample():
            k = run.samples
            run.samples += 1
            M = grp.sample_member(np.random.default_rng([run.seed, 2, k]))
            defect = _check_member(grp, M)
            pool[k % len(pool)] = M
            return defect

        return {"product": product, "inverse": inverse,
                "conjugate": conjugate, "sample": sample}[kind]


class GaugeFix(Workload):
    name = "gauge_fix"
    why = ("gauge_fix_sigma on OSp(1|2) and OSp(2|2) members over B_7: expm of "
           "one-degree conjugators, Neumann inverses, Sylvester solves")
    tail_cap = 90.0
    pass_cycles = 3
    algebras = ((1, 1), (2, 1))
    params = {"N": 7, "groups": ["OSp(1|2)", "OSp(2|2)"], "pool": {"OSp(1|2)": 6, "OSp(2|2)": 3}}
    # Member j of workload seed s is drawn with default_rng(s * POOL + j), so
    # the seeds cut the member-seed space into disjoint blocks.  Seed 2 holds
    # OSp(2|2) member 7 and seed 4 holds OSp(1|2) member 25, the two members
    # that fail the absolute chi tolerance at the baseline.
    POOL_12 = 6
    POOL_22 = 3
    DEGREES = (1, 3, 5, 7)

    def setup(self, seed):
        g12 = group.OspGroup(1, 1, 7)
        g22 = group.OspGroup(2, 1, 7)
        g12.algebra()
        g22.algebra()
        p12 = tuple(g12.sample_member(np.random.default_rng(seed * self.POOL_12 + j))
                    for j in range(self.POOL_12))
        p22 = tuple(g22.sample_member(np.random.default_rng(seed * self.POOL_22 + j))
                    for j in range(self.POOL_22))
        return (g12, p12, seed * self.POOL_12), (g22, p22, seed * self.POOL_22)

    def cycle(self, run, c):
        (g12, p12, b12), (g22, p22, b22) = run
        # two OSp(1|2) fixes per OSp(2|2) fix: the median falls inside the
        # OSp(1|2) share and the tail inside the OSp(2|2) share
        picks = ((g12, p12, b12, (2 * c) % len(p12)),
                 (g12, p12, b12, (2 * c + 1) % len(p12)),
                 (g22, p22, b22, c % len(p22)))
        return [Op(f"c{c}.osp({g.m}|{g.two_n}).member{base + k}", self._op(g, pool[k]))
                for g, pool, base, k in picks]

    def _op(self, grp, U):
        def fix():
            res = group.gauge_fix_sigma(grp, U)
            fixed = res.U_fixed
            chi = max(e.max_abs() for row in fixed.block("chi") for e in row)
            if not chi <= GAUGE_TOL:
                raise WrongResult(chi, f"returned chi block {chi:.3e} > {GAUGE_TOL:.0e}")
            drift = float(np.abs(fixed.body() - U.body()).max())
            if not drift <= BODY_TOL:
                raise WrongResult(drift, f"gauge fixing moved the body by {drift:.3e}")
            if res.degrees_solved != self.DEGREES:
                raise WrongResult(float("nan"), f"solved degrees {res.degrees_solved}")
            return chi

        return fix


class ClosurePhase(Workload):
    name = "closure_phase"
    why = ("check_closure on osp(1|2), (2|2), (1|4), (2|4), a detuned eta, and "
           "three moduli directions: the phase layer, no supermatrix work")
    tail_cap = 90.0
    pass_cycles = 1
    algebras = ((1, 1, "osp12"), (2, 1), (1, 2), (2, 2))
    params = {"N": None, "algebras": ["osp(1|2)", "osp(2|2)", "osp(1|4)", "osp(2|4)"]}
    CLOSURE_TOL = 1e-12

    def setup(self, seed):
        algs = {"osp(1|2)": superlie.build_osp12(), "osp(2|2)": superlie.build_osp(2, 1),
                "osp(1|4)": superlie.build_osp(1, 2), "osp(2|4)": superlie.build_osp(2, 2)}
        rng = np.random.default_rng([seed, 3])
        # detune one spatial entry of the osp(1|2) eta by 20-50%
        eta = np.diag([-1.0, 1.0, 1.0])
        eta[1 + int(rng.integers(0, 2))] *= 1.0 + rng.uniform(0.2, 0.5)
        return algs, eta, seed

    def start(self, state):
        algs, eta, seed = state
        return algs, eta, np.random.default_rng([seed, 4]), {}

    def cycle(self, run, c):
        # five closures and three cheap moduli ops: the median falls inside
        # the share of the two ~10 ms osp(1|2) closures (3/8 to 5/8) and the
        # tail inside osp(2|4)'s (7/8 to 1)
        algs, eta, rng, kappa = run
        ops = [Op(f"c{c}.closure.{name}", self._closure(alg, name, kappa))
               for name, alg in algs.items()]
        ops.append(Op(f"c{c}.closure.detuned", self._detuned(algs["osp(1|2)"], eta)))
        for name in ("so2", "hyperbolic", "parabolic"):
            s = float(rng.uniform(0.5, 2.0))
            ops.append(Op(f"c{c}.moduli.{name}", self._moduli(algs["osp(1|2)"], name, s)))
        return ops

    def _closure(self, alg, name, kappa):
        def run():
            rep = phase.check_closure(alg, tol=self.CLOSURE_TOL)
            worst = max(rep.max_unexplained, rep.proportionality_residual)
            if not rep.passed:
                raise WrongResult(worst, f"{name} closure failed: {rep}")
            # one global kappa across algebras (acceptance criterion 09)
            ref = kappa.setdefault("osp(1|2)", rep.kappa)
            if not abs(rep.kappa - ref) <= self.CLOSURE_TOL:
                raise WrongResult(abs(rep.kappa - ref), f"{name} kappa {rep.kappa} != {ref}")
            return worst

        return run

    def _detuned(self, alg, eta):
        def run():
            rep = phase.check_closure(alg, tol=self.CLOSURE_TOL, eta_override=eta)
            if rep.passed:
                raise WrongResult(rep.proportionality_residual, "detuned eta passed closure")
            return rep.proportionality_residual

        return run

    @staticmethod
    def _moduli(alg, name, s):
        # the odd-odd block scales with s, so det scales with s^2 and the
        # rank and moduli of each direction do not change
        direction, det_sign, rank, null = {
            "so2": ([-s, 0.0, 0.0], 1.0, 2, False),
            "hyperbolic": ([0.0, s, 0.0], -1.0, 2, False),
            "parabolic": ([-s, 0.0, s], 0.0, 1, True),
        }[name]

        def run():
            rep = phase.exponential_sector_moduli(alg, direction)
            err = abs(rep.det - det_sign * s * s)
            if (rep.rank, rep.moduli, rep.direction_is_null) != (rank, 2 * (2 - rank), null) \
                    or not err <= 1e-12 * s * s:
                raise WrongResult(err, f"{name} direction gave {rep}")
            return err

        return run


class CliSmall(Workload):
    name = "cli_small"
    why = ("the documented CLI commands at N=2 through cli.main, stdout byte-identical "
           "to a fresh python -m run: per-call overhead, not term count")
    tail_cap = 75.0
    pass_cycles = 1
    algebras = ((1, 1, "osp12"), (1, 1), (2, 1), (1, 2), (2, 2))
    params = {"N": 2, "commands": 7}
    # The README's commands.  Seven of them, so that the median lands inside
    # one command's share of the ops rather than between two (sectors --m 2
    # --n 1), and p75 inside the share of the second slowest (report).
    COMMANDS = (
        ("report",),
        ("sectors",),
        ("sectors", "--m", "2", "--n", "1"),
        ("membership", "--samples", "200"),
        ("moduli", "--m", "1", "--n", "2", "--samples", "50"),
        ("closure",),
        ("jacobi", "--m", "2", "--n", "1"),
    )

    def setup(self, seed):
        seeds = np.random.default_rng([seed, 5]).integers(0, 2**31, len(self.COMMANDS))
        return [[*cmd, "--seed", str(int(s))] for cmd, s in zip(self.COMMANDS, seeds)]

    def prepare(self, argvs, ctx):
        """Stdout of every command from a fresh `python -m superholonomy.cli`.

        Every in-process run must match it byte for byte: the CLI's output may
        not depend on the process or on what ran before in it.
        """
        reference = {}
        for argv in argvs:
            res = run_child([ctx.python, "-m", "superholonomy.cli", *argv], ctx.env)
            if res.returncode != 0:
                tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
                raise RuntimeError(f"reference run of {' '.join(argv)} exited "
                                   f"{res.returncode}: {' '.join(tail)}")
            reference[tuple(argv)] = res.stdout
        return argvs, reference

    def cycle(self, run, c):
        argvs, reference = run
        return [Op(f"c{c}.{argv[0]}.{k}", self._in_process(argv, reference[tuple(argv)]))
                for k, argv in enumerate(argvs)]

    @staticmethod
    def _in_process(argv, want):
        def go():
            code, text = run_in_process(argv)
            if code != 0:
                raise RuntimeError(f"cli.main exited {code}")
            if text != want:
                raise WrongResult(float(len(text) - len(want)),
                                  "stdout differs from the fresh-process reference bytes")
            return text

        return go


def run_in_process(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


WORKLOADS = {w.name: w for w in (MembershipDense(), GaugeFix(), ClosurePhase(), CliSmall())}
