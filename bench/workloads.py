"""The three workloads: inputs generated from the seed, the jobs that use
them, and the output checks every job must pass.

Each workload draws a fixed-size pool of jobs from its seed and cycles
through it, so a run of any length covers the whole pool and the pool's
outcomes (worst residual) repeat exactly for a seed.  Inputs are stratified
over the ranges they cover, which keeps the worst residual from hinging on
one lucky or unlucky draw.

No job operation fails on any seed.  Inputs known to fail (the divergent
tails of ``shoot_weak``) are kept out of the jobs and run as probes in the
traced run, where they are counted by kind of failure.

Each solving workload also pins one input: the one with the largest
``ns_residual`` found among random draws from its input class.  The worst
residual of a run is then set by that input on every seed instead of by
whichever rare draw comes close to it, so ``ns_residual.max`` is steady
across seeds and still moves when the program's accuracy does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import hamelflow.cli
import hamelflow.field
import hamelflow.solve
import hamelflow.verify
from hamelflow.flows import circulation_threshold
from hamelflow.grid import BoundarySpectrum, synthesize_boundary
from hamelflow.solve import SolverConfig, SolverConvergenceError

NS_LIMIT = 1e-4      # ns_residual every converged solution must stay below
TRACE_TOL = 1e-12    # trace reproduction, absolute, on O(1) velocities

OK = "ok"
FAIL_CONVERGENCE = "fail.convergence"
FAIL_UNTYPED = "fail.untyped"
FAIL_WRONG = "fail.wrong"
OUTCOMES = (OK, FAIL_CONVERGENCE, FAIL_UNTYPED, FAIL_WRONG)


@dataclass
class Outcome:
    """Result of one operation: classification, problems, residuals seen."""

    kind: str
    detail: str = ""
    ns: list = field(default_factory=list)


def classify(exc) -> Outcome:
    if isinstance(exc, SolverConvergenceError):
        return Outcome(FAIL_CONVERGENCE, str(exc))
    return Outcome(FAIL_UNTYPED, f"{type(exc).__name__}: {exc}")


def checked(problems, ns=()) -> Outcome:
    return Outcome(FAIL_WRONG if problems else OK, "; ".join(problems),
                   list(ns))


def guarded(fn, *args):
    """(result, None) or (None, exception) of one operation."""
    try:
        return fn(*args), None
    except Exception as exc:   # any escape is classified, never fatal
        return None, exc


def _spectrum(n_max, phi0, mu0, vr_rows, vt_rows):
    vr = np.zeros(n_max + 1, dtype=complex)
    vt = np.zeros(n_max + 1, dtype=complex)
    vr[1:len(vr_rows) + 1] = vr_rows
    vt[1:len(vt_rows) + 1] = vt_rows
    return BoundarySpectrum(n_max=n_max, vr=vr, vtheta=vt, phi0=phi0,
                            mu0=mu0, mu=mu0)


def _turns(moduli, turns):
    """Coefficients from moduli and phases given in turns."""
    return np.asarray(moduli) * np.exp(2j * np.pi * np.asarray(turns))


def _random_rows(rng, n_rows, lo, hi):
    """Complex coefficients with moduli uniform in [lo, hi] and random phase."""
    mod = rng.uniform(lo, hi, n_rows)
    return mod * np.exp(2j * np.pi * rng.random(n_rows))


def _config(spec, solver, output=None, branch=None):
    """Mode-form config for a spectrum whose trace is budgeted at mu = mu0."""
    rows = lambda a: [[float(v.real), float(v.imag)] for v in a[1:]]
    cfg = {"flow": {"phi0": spec.phi0, "mu0": spec.mu0, "mu": spec.mu},
           "boundary": {"modes": {"vr": rows(spec.vr),
                                  "vtheta": rows(spec.vtheta)}},
           "solver": solver}
    if output:
        cfg["output"] = output
    if branch:
        cfg["branch"] = branch
    return cfg


def trace_problems(phi0, mu, gamma1, dgamma1, spec, mean_tol):
    """Compare the trace a solution carries at r = 1 with the input trace.

    gamma1 and dgamma1 are the mode values (n = 0..n_max) at r = 1.  The
    swirl mean is checked separately to ``mean_tol``: shooting closes it
    only to its own tolerance.
    """
    n_max = spec.n_max
    m = 4 * n_max + 4
    theta = 2.0 * np.pi * np.arange(m) / m
    n = np.arange(1, n_max + 1)[:, None]
    phase = np.exp(1j * n * theta)
    ur = -phi0 + 2.0 * np.real((1j * n * gamma1[1:, None]) * phase).sum(0)
    ut = (mu - np.real(dgamma1[0])
          - 2.0 * np.real(dgamma1[1:, None] * phase).sum(0))
    ur_in, ut_in = synthesize_boundary(spec, m)
    d_ut = ut - ut_in
    problems = []
    if np.abs(ur - ur_in).max() > TRACE_TOL:
        problems.append(f"u_r trace off by {np.abs(ur - ur_in).max():.2e}")
    if np.abs(d_ut - d_ut.mean()).max() > TRACE_TOL:
        problems.append("u_theta trace off by "
                        f"{np.abs(d_ut - d_ut.mean()).max():.2e}")
    if abs(d_ut.mean()) > mean_tol:
        problems.append(f"mean swirl off by {abs(d_ut.mean()):.2e}")
    return problems


def solution_problems(solution, spec, ns, mean_tol):
    """Trace, bookkeeping and residual checks on one converged solution."""
    m = 4 * spec.n_max + 4
    problems = trace_problems(solution.flow.phi0, solution.flow.mu,
                              solution.gamma[:, 0], solution.dgamma[:, 0],
                              spec, mean_tol)
    ur0, ut0 = synthesize_boundary(spec, m)
    ur1, ut1 = synthesize_boundary(solution.boundary, m)
    drift = max(np.abs(ur0 - ur1).max(), np.abs(ut0 - ut1).max())
    if drift > TRACE_TOL:
        problems.append(f"rebudgeted trace differs by {drift:.2e}")
    if not ns < NS_LIMIT:
        problems.append(f"ns_residual {ns:.2e} >= {NS_LIMIT:g}")
    return problems


class Workload:
    """A pool of jobs drawn from the seed.  A job is one user request made of
    one or more operations (a solve, a trace, a branch member, a check);
    failures are counted per operation."""

    name = ""
    pool_size = 1   # jobs per pass

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup_config(self) -> dict:
        """Config for the set-up measurement (CLI import, load, assemble)."""
        raise NotImplementedError

    def run(self, i: int) -> list:
        """Job i, timed: one (result, exception) pair per operation."""
        raise NotImplementedError

    def outcomes(self, i: int, raw: list) -> list:
        """Classify and check job i's operations, outside the timing."""
        raise NotImplementedError

    def attempt(self, i: int, clock):
        """Run, time and check job i; returns (seconds, outcomes)."""
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            raw = self.run(i)
        elapsed = clock() - t0
        return elapsed, self.outcomes(i, raw)

    def probes(self) -> list:
        """Outcomes of inputs known to fail, run outside the jobs; the
        traced run counts them with the failures."""
        return []

    def close(self):
        pass


class CliField(Workload):
    """``hamelflow solve`` through the click entry point, field output on."""

    name = "cli_field"
    pool_size = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.specs, self.paths, self.digests = [], [], {}
        for i in range(self.pool_size):
            spec = (_spectrum(16, 2.5, 0.2,
                              _turns(0.01, [0.228, 0.024, 0.696]),
                              _turns(0.01, [0.337, 0.342, 0.276]))
                    if i == 0 else
                    _spectrum(16, 2.5, 0.2, _random_rows(self.rng, 3, 0.0, 0.01),
                              _random_rows(self.rng, 3, 0.0, 0.01)))
            cfg = _config(spec, {"n_modes": 16, "nodes_per_decade": 64,
                                 "r_max": 1e4},
                          output={"write_field": True, "theta_points": 128})
            path = os.path.join(workdir, f"cli_field_{i}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.specs.append(spec)
            self.paths.append(path)
        with open(self.paths[0]) as fh:
            self._setup = json.load(fh)

    def setup_config(self):
        return self._setup

    def _solve(self, i):
        out = os.path.join(self.workdir, f"out_{i}")
        try:
            hamelflow.cli.main(["solve", "--config", self.paths[i], "--out",
                                out, "--seed", str(self.seed)],
                               standalone_mode=False)
        except SystemExit as exc:
            if exc.code == hamelflow.cli.CONVERGENCE_EXIT:
                raise SolverConvergenceError(f"exit code {exc.code}") from exc
            raise RuntimeError(f"exit code {exc.code}") from exc
        return out

    def run(self, i):
        return [guarded(self._solve, i)]

    def outcomes(self, i, raw):
        (out, exc), = raw
        if exc is not None:
            return [classify(exc)]
        blobs = {}
        for fname in ("report.json", "modes.json"):
            with open(os.path.join(out, fname), "rb") as fh:
                blobs[fname] = fh.read()
        report = json.loads(blobs["report.json"])
        modes = json.loads(blobs["modes.json"])
        ns = float(report["ns_residual"])
        problems = [] if report["converged"] else ["report says not converged"]
        row = lambda key: np.array([complex(*m[key][0]) for m in modes["modes"]])
        problems += trace_problems(modes["phi0"], modes["mu"], row("gamma"),
                                   row("dgamma"), self.specs[i], TRACE_TOL)
        if not ns < NS_LIMIT:
            problems.append(f"ns_residual {ns:.2e} >= {NS_LIMIT:g}")
        digest = {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}
        first = self.digests.setdefault(i, digest)
        for fname in blobs:
            if digest[fname] != first[fname]:
                problems.append(f"{fname} bytes differ from the first run")
        return [checked(problems, [ns])]


def weak_flux_bank(n_modes):
    """The fixed bank of weak-flux traces that ``shoot_weak`` draws from.

    A Latin hypercube over phi0 in [0.5, 1.9] and the offset of mu0 above
    the circulation threshold in [0.02, 6]; moduli 0.002-0.02 on modes 1-3
    with random phases.  The generator's seed is fixed, so the bank, and
    which of its traces fail, is the same on every run.
    """
    size = len(BANK_WORK)
    rng = np.random.default_rng(17399)
    cells = rng.permuted(np.tile(np.arange(size), (2, 1)), axis=1)
    u = (cells + rng.random((2, size))) / size
    bank = []
    for phi0, off, amp in zip(0.5 + 1.4 * u[0], 0.02 + 5.98 * u[1],
                              0.004 + 0.016 * rng.random(size)):
        mu0 = float(circulation_threshold(phi0) + off)
        bank.append(_spectrum(n_modes, float(phi0), mu0,
                              _random_rows(rng, 3, 0.5 * amp, amp),
                              _random_rows(rng, 3, 0.5 * amp, amp)))
    return bank


# Picard iterations shoot_mu spends on each bank trace, summed over its
# shooting candidates, counted once by running the whole bank.  0 marks a
# trace on which DivergentTailError escapes shoot_mu (the quadrature's tail
# fit reads a decaying integrand as divergent): those are probes, not job
# traces.  The jobs are balanced on this work.
BANK_WORK = (
    10, 18, 10, 10, 10, 10, 10, 10, 18, 10, 24, 10, 10, 21, 8, 10, 18, 21, 12,
    18, 10, 12, 15, 10, 21, 10, 10, 15, 10, 10, 18, 10, 8, 18, 21, 15, 10, 10,
    12, 18, 10, 10, 15, 18, 10, 10, 0, 10, 18, 10, 12, 10, 10, 15, 10, 18, 21,
    8, 10, 15, 10, 18, 8, 18, 10, 21, 18, 10, 15, 10, 18, 10, 10, 8, 8, 21,
    18, 24, 10, 10, 15, 15, 10, 0, 10, 15, 10, 18, 10, 8, 8, 18, 10, 18, 10,
    18, 18, 10, 10, 18, 18, 8, 15, 10, 0, 18, 18, 10, 36, 15, 10, 10, 21, 10,
    10, 10, 18, 10, 10, 10, 10, 21, 18, 0, 18, 10, 0, 18, 18, 18, 18, 10, 24,
    10, 10, 15, 18, 10, 10, 15, 10, 8, 18, 18, 18, 21, 10, 18, 18, 10, 18, 12,
    15, 10, 18, 10, 15, 10, 18, 8, 8, 10, 8, 32, 18, 15, 21, 18, 10, 18, 10,
    8, 10, 10, 10, 0, 18, 18, 10, 18, 8, 10, 21, 18, 10, 18, 0, 15, 18, 10,
    10, 15, 10, 0, 15, 15, 10, 18, 10, 10, 18, 10, 21, 8, 10, 21, 21, 10, 10,
    18, 8, 21, 18, 18, 21, 15, 10, 21, 10, 18, 10, 15, 10, 18, 0, 0, 10, 10,
    15, 10, 8, 18, 0, 15, 18, 12, 10, 32, 21, 18,
)


class ShootWeak(Workload):
    """Shooting scans: ``shoot_mu`` -> ``ns_residual`` ->
    ``asymptotic_circulation`` over a group of traces with phi0 <= 2."""

    name = "shoot_weak"
    pool_size = 10
    group = 4        # traces per job
    n_modes = 12
    npd = 96

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = SolverConfig(n_modes=self.n_modes,
                                   nodes_per_decade=self.npd)
        # The seed draws one trace from each of 40 strata of the bank's
        # converging traces ordered by work.  Member m of every job comes
        # from quarter m of that order, so the jobs cost about the same.
        bank = weak_flux_bank(self.n_modes)
        usable = sorted((t for t, work in enumerate(BANK_WORK) if work),
                        key=BANK_WORK.__getitem__)
        strata = np.array_split(np.array(usable),
                                self.pool_size * self.group)
        picks = [bank[int(self.rng.choice(st))] for st in strata]
        quarters = [[picks[m * self.pool_size + j]
                     for j in self.rng.permutation(self.pool_size)]
                    for m in range(self.group)]
        self.specs = [quarters[m][j] for j in range(self.pool_size)
                      for m in range(self.group)]
        # Member 2 of job 0 is pinned: the bank trace with the largest
        # ns_residual (6.7e-5; the next is 1.8e-5), 18 iterations of work.
        # The known divergent-tail reproducer (phi0=1.8, mu0=0.5,
        # vr_2 = vtheta_1 = 0.01) and the bank's divergent traces run as
        # probes.
        self.pinned = bank[231]
        self.specs[2] = self.pinned
        self.known_failures = [_spectrum(self.n_modes, 1.8, 0.5, [0.0, 0.01],
                                         [0.01])]
        self.known_failures += [bank[t] for t, work in enumerate(BANK_WORK)
                                if not work]

    def setup_config(self):
        return _config(self.pinned, {"n_modes": self.n_modes,
                                       "nodes_per_decade": self.npd})

    def _shoot(self, spec):
        solution, report = hamelflow.solve.shoot_mu(spec, self.config)
        ns = hamelflow.field.ns_residual(solution)
        hamelflow.field.asymptotic_circulation(solution)
        return solution, report, ns

    def traces(self, i):
        return range(i * self.group, (i + 1) * self.group)

    def run(self, i):
        return [guarded(self._shoot, self.specs[t]) for t in self.traces(i)]

    def _check(self, spec, result, exc):
        if exc is not None:
            return classify(exc)
        solution, report, ns = result
        mean_tol = self.config.tol_mu * max(1.0, abs(report.mu))
        return checked(solution_problems(solution, spec, ns, mean_tol), [ns])

    def outcomes(self, i, raw):
        return [self._check(self.specs[t], *r)
                for t, r in zip(self.traces(i), raw)]

    def probes(self):
        return [self._check(spec, *guarded(self._shoot, spec))
                for spec in self.known_failures]


class VerifyBattery(Workload):
    """``run_battery(quick=False, seed)``; each check is one operation."""

    name = "verify_battery"
    pool_size = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31,
                                                         self.pool_size)]
        # The battery's own fixed-point check computes ns_residual; record it.
        self.ns_seen = []
        self._inner = hamelflow.verify.ns_residual

        def capture(solution):
            value = self._inner(solution)
            self.ns_seen.append(value)
            return value

        hamelflow.verify.ns_residual = capture

    def close(self):
        hamelflow.verify.ns_residual = self._inner

    def setup_config(self):
        spec = _spectrum(16, 2.5, 0.2, [0.0, 0.01], [0.01])
        return _config(spec, {"n_modes": 16, "nodes_per_decade": 64,
                              "r_max": 1e6})

    def run(self, i):
        self.ns_seen.clear()
        return [guarded(hamelflow.verify.run_battery, False, self.seeds[i])]

    def outcomes(self, i, raw):
        (battery, exc), = raw
        if exc is not None:
            return [classify(exc)]
        extra = []
        if battery["all_passed"] != all(c["passed"] for c in battery["checks"]):
            extra.append("all_passed disagrees with the checks")
        if not self.ns_seen:
            extra.append("the battery computed no ns_residual")
        out = []
        for n, c in enumerate(battery["checks"]):
            problems = [] if c["passed"] else [f"{c['name']}: {c['detail']}"]
            if n == 0:
                out.append(checked(problems + extra, self.ns_seen))
            else:
                out.append(checked(problems))
        return out


WORKLOADS = {w.name: w for w in (CliField, ShootWeak, VerifyBattery)}
