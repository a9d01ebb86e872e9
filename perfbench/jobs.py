"""Workloads of the quandlekit benchmark: set-up, jobs and reference checks.

Each workload is a fixed list of jobs.  ``build`` does the set-up (quandles,
cochain files, seeded inputs, expected values) and returns the jobs; a job's
``run`` is what the benchmark times and its ``check`` compares the output with
a published value, an identity between outputs of the same round, or both.
Jobs marked ``recorded`` also compare the sha256 of their output with
``reference.json``, which holds the outputs of the code the benchmark was
defined on.

Why these workloads:

* ``coloring``: in-process state sums, coloring counts with ``q`` and
  quandle-size sweeps, and listings that materialise and print every
  solution; time goes to the coloring search, region fill, weight fold and
  printing, while homology only runs ``is_cocycle``.
* ``homology``: chain basis, boundary build and Smith normal form / GF(p)
  elimination in survey order; the coloring layer is idle.

Both run through every layer a user's command does except process start-up,
which each round's set-up pays: a round is a fresh interpreter that imports
quandlekit.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import random
import re
import resource
import time
from dataclasses import dataclass
from typing import Callable

A9 = "alexander:3:1,0,1:2"
A27 = "alexander:3:1,0,0,1:2"
S4 = "alexander:2:1,1,1:0,1"
THETA = "theta_R3.cochain"
WORK = os.path.join("perfbench", ".out", "work")

# Delta-Fibonacci ranks f_n of H_n^Q(R_3) = Z_3^{f_n}, n = 1..11
# (Niebrzydowski and Przytycki, JPAA 213, 2009).
DELTA_FIB = (0, 0, 1, 1, 1, 2, 3, 4, 6, 9, 13)

# Quandle-size sweep: (name, quandle, |X|, diagram).  A27 runs on T(3,4): its
# 531,441 shadow colorings of T(3,6) take a whole round on their own.
SWEEP = (("R3", "dihedral:3", 3, "torus:3:6"), ("R5", "dihedral:5", 5, "torus:3:6"),
         ("R7", "dihedral:7", 7, "torus:3:6"), ("A9", A9, 9, "torus:3:6"),
         ("A27_T34", A27, 27, "torus:3:4"))
Q_SWEEP = (30, 100, 300, 1000)
T2_FAMILY = (9, 12)
R5_T2 = (5, 50)
BRAIDS = 2
R3_TOP = 7  # highest degree of the R3 homology survey

JOB_IDS = {
    "coloring": (
        [f"T3_q{q}" for q in Q_SWEEP] + [f"T2_q{q}" for q in T2_FAMILY] + ["K6_1"]
        + [f"R5_T2_q{q}" for q in R5_T2] + ["R5_7_4", "S4_T3_q6", "S4_T3_q60", "surf_trefoil"]
        + [f"{kind}_{name}" for name, *_ in SWEEP for kind in ("count", "shadow")]
        + [f"rb{i}_{kind}" for i in range(BRAIDS)
           for kind in ("count", "shadow", "inv", "mirror")]
        + ["A27_T36_list", "A27_trefoil_shadow_list", "A9_T312_shadow_list",
           "A27_7_4_list", "surf_trefoil_list", "S4_T312_lifts"]
    ),
    "homology": (
        [f"R3_Q{n}" for n in range(2, R3_TOP + 1)] + [f"R4_Q{n}" for n in range(2, 5)]
        + [f"R5_Q{n}" for n in range(2, 4)]
        + [f"R3_mod3_Q{R3_TOP}", f"R3_uct3_Q{R3_TOP}", "coh_R5_Q3_mod5", "coh_R4_Q3_mod4",
           "verify_theta", "verify_theta_dmu", "verify_dmu", "HR_triv3_5", "budget_R5_Q7"]
    ),
}
WORKLOADS = tuple(JOB_IDS)


@dataclass
class Out:
    code: int
    text: str  # stdout of a CLI job, canonical text of an API job
    handler_ms: float | None = None  # the CLI's own stderr ``time:`` line


@dataclass
class Job:
    id: str
    run: Callable[[], Out]
    check: Callable[[Out, dict], str | None]
    recorded: bool = True


@dataclass
class Context:
    root: str
    seed: int


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("#data")]


def _data_ints(out: Out, key: str) -> list[int]:
    for line in data_lines(out.text):
        toks = line.split()
        if toks[1] == key:
            return [int(t) for t in toks[2:]]
    raise ValueError(f"no '#data {key}' line")


_TIME_LINE = re.compile(r"^time: (\d+) ms$", re.M)


def _handler_ms(stderr: str) -> float | None:
    found = _TIME_LINE.findall(stderr)
    return float(found[-1]) if found else None


def cli_call(argv: list[str]) -> Out:
    """``quandlekit.cli.main(argv)`` in-process, stdout and stderr captured."""
    import quandlekit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quandlekit.cli.main(argv)
    return Out(code, out.getvalue(), _handler_ms(err.getvalue()))


def expect(data: list[str] | None = None, code: int = 0, extra=None):
    """Check exit code, exact ``#data`` lines and an optional extra check."""

    def check(out: Out, outs: dict) -> str | None:
        if out.code != code:
            return f"exit {out.code}, expected {code}"
        if data is not None and data_lines(out.text) != data:
            return f"#data {data_lines(out.text)}, expected {data}"
        return extra(out, outs) if extra else None

    return check


def psi(k: int) -> str:
    """#data line of 9 + 18 t^k in Z[t]/(t^3 - 1), the R3 shadow value."""
    coeffs = [9, 0, 0]
    coeffs[k % 3] += 18
    return "#data invariant 3 " + " ".join(map(str, coeffs))


def t3_family(q: int) -> str:
    """Shadow value of T(3,2k): 9 + 18t^k, or 81 when 3 divides k."""
    k = q // 2
    return "#data invariant 3 81 0 0" if k % 3 == 0 else psi(k)


def _write_cochain(path: str, degree: int, modulus: int, values: dict) -> None:
    lines = [f"cochain {degree} {modulus}"]
    lines += [" ".join(map(str, t)) + f" {v % modulus}" for t, v in sorted(values.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _nontrivial_cocycle(X, n: int, d: int):
    """The first listed cocycle mod d that is not a coboundary."""
    import quandlekit

    spaces = quandlekit.cohomology(X, n, "Q", d)
    return next(c for c in spaces.cocycles() if not spaces.contains_coboundary(c))


# --- coloring ----------------------------------------------------------------------


def _random_braid(rng: random.Random, strands: int = 3, length: int = 10) -> str:
    while True:
        letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if {abs(x) for x in letters} == set(range(1, strands)):  # connected closure
            return f"braid:{strands}:" + " ".join(map(str, letters))


def _conjugate(coeffs: list[int]) -> list[int]:
    d = len(coeffs)
    return [coeffs[(-k) % d] for k in range(d)]


def _state_sums(ctx: Context) -> list[Job]:
    import quandlekit

    os.makedirs(WORK, exist_ok=True)
    theta5 = os.path.join(WORK, "theta_R5.cochain")
    phi4 = os.path.join(WORK, "phi_S4.cochain")
    c = _nontrivial_cocycle(quandlekit.make_dihedral(5), 3, 5)
    _write_cochain(theta5, 3, 5, c.values)
    c = _nontrivial_cocycle(quandlekit.make_alexander(2, [1, 1, 1], [0, 1]), 2, 2)
    _write_cochain(phi4, 2, 2, c.values)

    def aug_is(expected: int):
        def extra(out, outs):
            got = sum(_data_ints(out, "invariant")[1:])
            return None if got == expected else f"augmentation {got}, expected {expected}"
        return extra

    def shadows_are(count_id: str, size: int):
        def extra(out, outs):
            shadows = _data_ints(out, "shadow-colorings")[0]
            colorings = _data_ints(outs[count_id], "colorings")[0]
            if shadows != size * colorings:
                return f"{shadows} shadows != {size} x {colorings} colorings"
            return None
        return extra

    def cli_job(job_id, argv, check, recorded=True):
        return Job(job_id, lambda: cli_call(argv), check, recorded)

    jobs = [
        cli_job(f"T3_q{q}", ["invariant", f"torus:3:{q}", "dihedral:3", THETA],
                expect([t3_family(q)]))
        for q in Q_SWEEP
    ]
    jobs += [
        cli_job(f"T2_q{q}", ["invariant", f"torus:2:{q}", "dihedral:3", THETA],
                expect([psi(q // 3)]))
        for q in T2_FAMILY
    ]
    jobs.append(cli_job("K6_1", ["invariant", "6_1.pd", "dihedral:3", THETA],
                        expect(["#data invariant 3 27 0 0"])))
    # Fox 5-colorings: 25 when 5 divides the determinant (q for T(2,q), 15 for 7_4).
    jobs += [
        cli_job(f"R5_T2_q{q}", ["invariant", f"torus:2:{q}", "dihedral:5", theta5],
                expect(extra=aug_is(5 * (25 if q % 5 == 0 else 5))))
        for q in R5_T2
    ]
    jobs.append(cli_job("R5_7_4", ["invariant", "7_4.pd", "dihedral:5", theta5],
                        expect(extra=aug_is(125))))
    jobs += [cli_job(f"S4_T3_q{q}", ["invariant", f"torus:3:{q}", S4, phi4], expect())
             for q in (6, 60)]
    jobs.append(cli_job("surf_trefoil", ["invariant", "trefoil_shadow.surf", "dihedral:3",
                                         THETA], expect([psi(1)])))
    for name, spec, size, diagram in SWEEP:
        jobs.append(cli_job(f"count_{name}", ["color", diagram, spec, "--count"], expect()))
        jobs.append(cli_job(f"shadow_{name}", ["color", diagram, spec, "--shadow", "--count"],
                            expect(extra=shadows_are(f"count_{name}", size))))

    rng = random.Random(ctx.seed)
    for i in range(BRAIDS):
        spec = _random_braid(rng)
        head, word = spec.rsplit(":", 1)
        mirror = head + ":" + " ".join(str(-int(x)) for x in word.split())

        def inv_is_aug(out, outs, i=i):
            got = sum(_data_ints(out, "invariant")[1:])
            want = _data_ints(outs[f"rb{i}_shadow"], "shadow-colorings")[0]
            return None if got == want else f"augmentation {got} != {want} shadows"

        def mirror_is_conjugate(out, outs, i=i):
            got = _data_ints(out, "invariant")[1:]
            want = _conjugate(_data_ints(outs[f"rb{i}_inv"], "invariant")[1:])
            return None if got == want else f"mirror {got} != conjugate {want}"

        jobs += [
            cli_job(f"rb{i}_count", ["color", spec, "dihedral:3", "--count"], expect(),
                    recorded=False),
            cli_job(f"rb{i}_shadow", ["color", spec, "dihedral:3", "--shadow", "--count"],
                    expect(extra=shadows_are(f"rb{i}_count", 3)), recorded=False),
            cli_job(f"rb{i}_inv", ["invariant", spec, "dihedral:3", THETA],
                    expect(extra=inv_is_aug), recorded=False),
            cli_job(f"rb{i}_mirror", ["invariant", mirror, "dihedral:3", THETA],
                    expect(extra=mirror_is_conjugate), recorded=False),
        ]
    return jobs


def _listed(out: Out, outs) -> str | None:
    """The listing has one line per counted coloring, in lexicographic order."""
    head = data_lines(out.text)[0].split()
    rows = [line.split(": ", 1)[1] for line in out.text.splitlines()
            if line[:1].isdigit()]
    if len(rows) != int(head[2]):
        return f"{len(rows)} listed, {head[2]} counted"
    keys = [tuple(map(int, r.replace("|", " ").split())) for r in rows]
    return None if keys == sorted(keys) else "listing is not in lexicographic order"


def _listings() -> list[Job]:
    import quandlekit

    X = quandlekit.make_alexander(2, [1, 1, 1], [0, 1])
    phi = _nontrivial_cocycle(X, 2, 2)

    def lifts() -> Out:
        D = quandlekit.torus_diagram(3, 12)
        found = [quandlekit.lift_coloring(D, X, rho, 2, phi)
                 for rho in quandlekit.enumerate_colorings(D, X)]
        text = "\n".join(" ".join(map(str, c.colors)) for part in found for c in part)
        return Out(0, text + "\n")

    def lift_total(out, outs):
        n = out.text.count("\n")
        return None if n == 512 else f"{n} lifts, expected 512"

    specs = [
        ("A27_T36_list", ["color", "torus:3:6", A27, "--list"], ["#data colorings 19683"]),
        ("A27_trefoil_shadow_list", ["color", "trefoil.pd", A27, "--shadow", "--list"], None),
        ("A9_T312_shadow_list", ["color", "torus:3:12", A9, "--shadow", "--list"], None),
        ("A27_7_4_list", ["color", "7_4.pd", A27, "--list"], None),
        ("surf_trefoil_list", ["color", "trefoil_shadow.surf", "dihedral:3", "--list"], None),
    ]
    jobs = [Job(job_id, lambda a=argv: cli_call(a), expect(data, extra=_listed))
            for job_id, argv, data in specs]
    jobs.append(Job("S4_T312_lifts", lifts, lift_total))
    return jobs


# --- homology ----------------------------------------------------------------------


def _group(G) -> Out:
    return Out(0, f"{G.rank} {' '.join(map(str, G.invariant_factors))}".strip() + "\n")


def _ints(out: Out) -> list[int]:
    return [int(t) for t in out.text.split()]


def _build_homology(ctx: Context) -> list[Job]:
    import quandlekit as qk

    R3, R4, R5 = qk.make_dihedral(3), qk.make_dihedral(4), qk.make_dihedral(5)
    T3 = qk.make_trivial(3)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ctx.root, "src", "quandlekit", "data", THETA), encoding="utf-8") as fh:
        theta = qk.parse_cochain(fh.read())
    rng = random.Random(ctx.seed)
    mu = qk.Cochain(2, 3, {(a, b): rng.randrange(3) for a in range(3) for b in range(3) if a != b})
    dmu = qk.coboundary(R3, mu, "Q")
    shifted = os.path.join(WORK, "theta_dmu.cochain")
    exact = os.path.join(WORK, "dmu.cochain")
    _write_cochain(shifted, 3, 3, (theta + dmu).values)
    _write_cochain(exact, 3, 3, dmu.values)

    def quandle_homology(job_id, X, n, orbits, factors=None):
        def extra(out, outs):
            got = _ints(out)
            # Free rank of H_n^Q is o(o-1)^(n-1) for o orbits (Litherland-Nelson).
            if got[0] != orbits * (orbits - 1) ** (n - 1):
                return f"free rank {got[0]}, expected {orbits * (orbits - 1) ** (n - 1)}"
            if factors is not None and got[1:] != factors:
                return f"torsion {got[1:]}, expected {factors}"
            return None
        return Job(job_id, lambda: _group(qk.homology(X, n, "Q")), expect(extra=extra))

    top = R3_TOP
    jobs = [quandle_homology(f"R3_Q{n}", R3, n, 1, [3] * DELTA_FIB[n - 1])
            for n in range(2, top + 1)]
    jobs += [quandle_homology(f"R4_Q{n}", R4, n, 2) for n in range(2, 5)]
    jobs += [quandle_homology(f"R5_Q{n}", R5, n, 1) for n in range(2, 4)]

    def mod_value(out, outs):
        # dim H_n(R3; Z_3) = f_n + f_(n-1): the torsion of H_n and of H_(n-1).
        want = DELTA_FIB[top - 1] + DELTA_FIB[top - 2]
        return None if _ints(out) == [want] else f"{out.text.strip()}, expected {want}"

    def uct_equal(out, outs):
        same = out.text == outs[f"R3_mod3_Q{top}"].text
        return None if same else "uct_mod_dimension differs from homology_mod"

    def cohomology_uct(out, outs):
        # dim H^3(R5; Z_5) = rank H_3 + 5-torsion of H_3 and of H_2.
        want = sum(1 for f in _ints(outs["R5_Q3"])[1:] if f % 5 == 0)
        want += sum(1 for f in _ints(outs["R5_Q2"])[1:] if f % 5 == 0) + _ints(outs["R5_Q3"])[0]
        zc, bc = _ints(out)
        return None if zc - bc == want else f"{zc} - {bc} cocycles mod coboundaries, expected {want}"

    def spaces(X, n, d, prime):
        def run():
            s = qk.cohomology(X, n, "Q", d)
            if prime:
                return Out(0, f"{s.cocycle_dimension} {s.coboundary_dimension}\n")
            return Out(0, f"{len(s.cocycle_vectors)} {len(s.coboundary_vectors)}\n")
        return run

    def verify(path):
        return lambda: cli_call(["cocycles", "dihedral:3", "--degree", "3", "--mod", "3",
                                 "--verify", path])

    def free(out, outs):
        return None if _ints(out) == [3**5] else f"{out.text.strip()}, expected 243 (= 3^5)"

    jobs += [
        Job(f"R3_mod3_Q{top}", lambda: Out(0, f"{qk.homology_mod(R3, top, 'Q', 3)}\n"),
            expect(extra=mod_value)),
        Job(f"R3_uct3_Q{top}", lambda: Out(0, f"{qk.uct_mod_dimension(R3, top, 'Q', 3)}\n"),
            expect(extra=uct_equal)),
        Job("coh_R5_Q3_mod5", spaces(R5, 3, 5, True), expect(extra=cohomology_uct)),
        Job("coh_R4_Q3_mod4", spaces(R4, 3, 4, False), expect()),
        Job("verify_theta", verify(THETA), expect(["#data verify 1 0"])),
        Job("verify_theta_dmu", verify(shifted), expect(["#data verify 1 0"]), recorded=False),
        Job("verify_dmu", verify(exact), expect(["#data verify 1 1"]), recorded=False),
        Job("HR_triv3_5", lambda: _group(qk.homology(T3, 5, "R")), expect(extra=free)),
        # Refused by the resource budget before any work: exit 3.
        Job("budget_R5_Q7", lambda: cli_call(["homology", "dihedral:5", "--degree", "7"]),
            expect(code=3)),
    ]
    return jobs


_BUILDERS = {
    "coloring": lambda ctx: _state_sums(ctx) + _listings(),
    "homology": _build_homology,
}


def build(workload: str, ctx: Context) -> list[Job]:
    jobs = _BUILDERS[workload](ctx)
    if sorted(j.id for j in jobs) != sorted(JOB_IDS[workload]):
        raise RuntimeError(f"{workload}: built jobs differ from JOB_IDS")
    return jobs


def cpu_seconds() -> float:
    """User plus system CPU time of this process."""
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


# CPU time of one calibration slice at the reference speed: its median over
# the rounds of both workloads on the 2-vCPU Xeon VM (Python 3.11.7) the
# benchmark was defined on.
SLICE_MS = 3.1

# Operation table of the dihedral quandle R5, for the calibration slice.
_R5 = [[(2 * a - b) % 5 for b in range(5)] for a in range(5)]


def calibration_slice() -> int:
    """A fixed pure-Python task that does not touch quandlekit.

    Its CPU time gauges how fast the machine runs Python at the moment.  It
    mixes the two kinds of work the workloads do, dict and tuple traffic and
    table lookups in a search, so that a slowdown that hits one kind harder
    does not skew the gauge.  The collector is off so that settings the
    program makes cannot change it.
    """
    enabled = gc.isenabled()
    gc.disable()
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * 3 % 11
    found = []
    for a in list(range(5)) * 10:
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    x = _R5[_R5[a][b]][c]
                    if _R5[x][d] == a:
                        found.append((a, b, c, d))
    if enabled:
        gc.enable()
    return len(found) + len(sorted(counts))


def run_jobs(jobs: list[Job], tracer=None) -> tuple[dict, dict, dict]:
    """Run every job once, with a calibration slice before each.

    Returns outputs, errors and timings: each job's CPU time (ms), the
    round's wall and CPU seconds (slices excluded) and its ``speed``, the
    slices' CPU time over their time at the reference speed.  On a shared
    machine a neighbour slows a job and the slice beside it alike.
    """
    outs, errors, times = {}, {}, {}
    slices = 0.0
    first, first_cpu = time.perf_counter(), cpu_seconds()
    for job in jobs:
        start = cpu_seconds()
        calibration_slice()
        slices += cpu_seconds() - start
        if tracer is not None:
            tracer.job = job.id
        start = cpu_seconds()
        try:
            outs[job.id] = job.run()
        except Exception as exc:  # a raising job is a failed job, not a crash
            errors[job.id] = f"raised {type(exc).__name__}: {exc}"
        times[job.id] = (cpu_seconds() - start) * 1000
    timings = {
        "times": times,
        "wall_s": time.perf_counter() - first,
        "cpu_s": cpu_seconds() - first_cpu - slices,
        "speed": slices * 1000 / (len(jobs) * SLICE_MS),
    }
    return outs, errors, timings


def check_jobs(workload: str, jobs: list[Job], outs: dict, errors: dict,
               reference: dict | None) -> dict:
    """Error message (or None) per job; ``reference`` None skips digests."""
    result = {}
    for job in jobs:
        err = errors.get(job.id)
        out = outs.get(job.id)
        if err is None and out is not None:
            try:
                err = job.check(out, outs)
            except (KeyError, ValueError, IndexError) as exc:
                err = f"check could not read the output: {type(exc).__name__}: {exc}"
        if err is None and job.recorded and reference is not None:
            want = reference.get(f"{workload}/{job.id}")
            if want != digest(out.text):
                err = f"output sha256 {digest(out.text)[:12]} != recorded {str(want)[:12]}"
        result[job.id] = err
    return result
