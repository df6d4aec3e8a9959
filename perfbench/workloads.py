"""Seeded input generators, operations and output encodings of the four
benchmark workloads.

Input ``i`` of a workload depends only on (workload, seed, i), so a pass can
be replayed exactly by another process.  The generators use the standard
library only: they never import ``fibsurf`` or the test helpers, so the
program receives nothing but plain generated data and a later test edit
cannot change the benchmark's inputs.

Workload shapes (see BENCHMARK.json for why each one exists):

* ``lattice``  -- adapted-basis problems shaped like acceptance criterion 4:
  the canonical configuration pushed through random unimodular changes of
  coordinates, then construct + verify + ``change_basis`` by a random SL_2
  word of length <= 8.
* ``periods``  -- random points (Z, z) shaped like criterion 6 with
  (g, d) in {2,3} x {3,4,5}, plus a random Gamma(d) element.
* ``levels``   -- four fifths a strided sweep of small levels d, one fifth
  large primes and balanced semiprimes in 1e7..1e10.
* ``cli``      -- the eight subcommands in a fixed rotation, each with an
  input drawn from a fixed pool whose outputs are recorded in
  ``cli_expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("lattice", "periods", "levels", "cli")

GOLDEN_RATIO_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # str seeds hash through sha512, so streams are stable across processes
    return random.Random(f"{workload}:{seed}:{i}")


def make_inputs(workload: str, seed: int, start: int, count: int) -> list:
    gen = GENERATORS[workload]
    return [gen(seed, i) for i in range(start, start + count)]


# ---------------------------------------------------------------- lattice

def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(r) for r in zip(*a)]


def random_unimodular(rng: random.Random, n: int, steps: int):
    """(m, m_inv): a product of row shears, swaps and sign flips with
    bounded shear coefficients, and its exact inverse maintained by the
    inverse column operations."""
    m = _identity(n)
    inv = _identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                m[i][k] += c * m[j][k]
            for row in inv:  # inv <- inv * (I - c e_i e_j^T)
                row[j] -= c * row[i]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            m[i] = [-x for x in m[i]]
            for row in inv:
                row[i] = -row[i]
    return m, inv


def canonical_lattice_problem(g: int, d: int):
    """(U, gram, U_A, U_E) of the reference configuration: Z^(2g) with the
    standard principal form, U_A = <e_1..e_{g-1}, e_{g+1}..e_{2g-2},
    d e_{2g-1} - e_g> and U_E = <e_g, d e_{2g} - e_{g-1}>."""
    n = 2 * g
    gram = [[0] * n for _ in range(n)]
    for i in range(g):
        gram[i][g + i] = 1
        gram[g + i][i] = -1

    def eps(k: int) -> list[int]:
        return [1 if r == k else 0 for r in range(n)]

    def lin(a: list[int], ca: int, b: list[int], cb: int) -> list[int]:
        return [ca * x + cb * y for x, y in zip(a, b)]

    ua = [eps(k) for k in range(g - 1)] + [eps(k) for k in range(g, 2 * g - 2)]
    ua.append(lin(eps(2 * g - 2), d, eps(g - 1), -1))
    ue = [eps(g - 1), lin(eps(2 * g - 1), d, eps(g - 2), -1)]
    return _identity(n), gram, _transpose(ua), _transpose(ue)


SL2_WORD_LETTERS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)))


def random_sl2_word(rng: random.Random, max_len: int = 8) -> list[list[int]]:
    m = _identity(2)
    for _ in range(rng.randint(0, max_len)):
        m = _matmul(m, [list(r) for r in rng.choice(SL2_WORD_LETTERS)])
    return m


def lattice_input(seed: int, i: int) -> dict:
    """Input i: g = 2 for two thirds of the problems and g = 3 for one
    third, so that the median latency lies inside the g = 2 mode and p90
    inside the g = 3 mode (with equal shares the median would fall in the
    gap between the modes).  Three quarters of the problems have d in 2..7
    (cycled), one quarter a log-uniform d in 8..1000."""
    rng = _rng("lattice", seed, i)
    g = 3 if i % 3 == 2 else 2
    j = i // 3
    if j % 4 == 3:
        d = int(round(math.exp(rng.uniform(math.log(8), math.log(1000)))))
    else:
        d = 2 + j % 6
    u, gram, ua, ue = canonical_lattice_problem(g, d)
    n = 2 * g
    r, r_inv = random_unimodular(rng, n, 14)
    c_u, _ = random_unimodular(rng, n, 8)
    c_a, _ = random_unimodular(rng, n - 2, 8)
    c_e, _ = random_unimodular(rng, 2, 8)
    return {
        "g": g,
        "d": d,
        "U": _matmul(_matmul(r, u), c_u),
        "gram": _matmul(_matmul(_transpose(r_inv), gram), r_inv),
        "U_A": _matmul(_matmul(r, ua), c_a),
        "U_E": _matmul(_matmul(r, ue), c_e),
        "M": random_sl2_word(rng),
    }


def lattice_op(fs, x: dict):
    problem = fs.AdaptedBasisProblem(
        g=x["g"],
        d=x["d"],
        U=fs.IntMatrix(x["U"]),
        form=fs.AlternatingForm(fs.IntMatrix(x["gram"])),
        U_A=fs.IntMatrix(x["U_A"]),
        U_E=fs.IntMatrix(x["U_E"]),
    )
    basis = fs.construct_adapted_basis(problem)
    verified = fs.is_adapted_basis(problem, basis)
    moved = fs.change_basis(basis, fs.IntMatrix(x["M"]), x["d"])
    return basis.vectors, verified, (moved.vectors if moved else None)


def lattice_encode(out) -> dict:
    vectors, verified, moved = out
    return {
        "vectors": [list(v) for v in vectors],
        "verified": bool(verified),
        "moved": None if moved is None else [list(v) for v in moved],
    }


# ---------------------------------------------------------------- periods

# g = 2 twice as often as g = 3, for the same reason as in lattice_input.
PERIOD_SHAPES = ((2, 3), (2, 4), (3, 3), (2, 5), (2, 3), (3, 4), (2, 4), (2, 5), (3, 5))
TOL = 1e-9


def random_gamma_d_element(rng: random.Random, d: int, max_len: int = 8):
    gens = (((1, d), (0, 1)), ((1, -d), (0, 1)), ((1, 0), (d, 1)), ((1, 0), (-d, 1)))
    m = _identity(2)
    for _ in range(rng.randint(1, max_len)):
        m = _matmul(m, [list(r) for r in rng.choice(gens)])
    return m


def periods_input(seed: int, i: int) -> dict:
    """Criterion-6 point: Im Z = A A^T + 0.3 I, Re Z symmetric uniform,
    z with Re in [-2, 2] and Im in [0.2, 3]."""
    rng = _rng("periods", seed, i)
    g, d = PERIOD_SHAPES[i % len(PERIOD_SHAPES)]
    h = g - 1
    a = [[rng.uniform(-1, 1) for _ in range(h)] for _ in range(h)]
    im = [
        [sum(a[r][k] * a[c][k] for k in range(h)) + (0.3 if r == c else 0.0) for c in range(h)]
        for r in range(h)
    ]
    re = [[rng.uniform(-1, 1) for _ in range(h)] for _ in range(h)]
    re = [[(re[r][c] + re[c][r]) / 2.0 for c in range(h)] for r in range(h)]
    z_mat = [[[re[r][c], im[r][c]] for c in range(h)] for r in range(h)]
    z = [rng.uniform(-2, 2), rng.uniform(0.2, 3.0)]
    return {"g": g, "d": d, "Z": z_mat, "z": z, "M": random_gamma_d_element(rng, d)}


def periods_op(fs, x: dict):
    z_mat = tuple(tuple(complex(*v) for v in row) for row in x["Z"])
    p = fs.PeriodData(g=x["g"], d=x["d"], Z=z_mat, z=complex(*x["z"]), tol=TOL)
    t = fs.period_matrix(p).T
    defect_mono = fs.monodromy_translation_defect(p)
    defect_gamma = fs.gamma_action_defect(p, fs.IntMatrix(x["M"]))
    return t, defect_mono, defect_gamma


def periods_encode(out) -> dict:
    t, defect_mono, defect_gamma = out
    return {
        "T": [[[complex(v).real, complex(v).imag] for v in row] for row in t],
        "monodromy_defect": float(defect_mono),
        "gamma_defect": float(defect_gamma),
    }


# ----------------------------------------------------------------- levels

SWEEP_LO, SWEEP_SPAN, SWEEP_STRIDE = 3, 3000, 1853  # stride coprime to the span


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    e, s = n - 1, 0
    while e % 2 == 0:
        e //= 2
        s += 1
    for a in small:
        x = pow(a, e, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_probable_prime(n):
        n += 1
    return n


def levels_input(seed: int, i: int) -> int:
    """Four of every five levels sweep the small levels 3..3002 with a
    golden-ratio stride, so that every stretch of the sweep has the same
    mix of costs whatever the number of operations a pass gets through, and
    no level repeats within 3000 sweep operations.  Every fifth is large: a
    prime, or alternately a balanced semiprime, just above 10^(7 + 3u), with
    u running through the golden-ratio sequence and the seed choosing where
    within the next percent.  Every seed thus sees the same spread of costs
    on different numbers."""
    if i % 5 == 4:
        k = i // 5
        u = (k * GOLDEN_RATIO_FRAC) % 1.0
        target = 10.0 ** (7.0 + 3.0 * u) * (1.0 + 0.01 * _rng("levels", seed, i).random())
        if k % 2 == 0:
            return _next_prime(int(target))
        p = _next_prime(int(math.sqrt(target) * 0.85))
        return p * _next_prime(int(target / p))
    k = i - (i + 1) // 5
    return SWEEP_LO + k * SWEEP_STRIDE % SWEEP_SPAN


IDENTITY_NAMES = (
    "tables_construct",
    "noether_g2",
    "noether_g3",
    "tau_formula",
    "tau_positive_iff_d_gt_3",
    "riemann_hurwitz",
    "chi_derivation",
    "h_derivation",
    "euler_fibre_sum",
    "g2_common_defect",
    "unique_fibration_g3",
    "arakelov_g3",
)

INVARIANT_FIELDS = (
    "g", "d", "delta", "base_genus", "s", "c2", "chi", "K2",
    "tau", "H", "lambda_", "delta0", "delta1", "general_type",
)


def levels_op(fs, d: int):
    return fs.invariants_g2(d), fs.invariants_g3(d), fs.run_identity_checks(d, d)


def levels_encode(out) -> dict:
    i2, i3, checks = out

    def row(inv) -> list:
        vals = [getattr(inv, f) for f in INVARIANT_FIELDS]
        return [v if v is None or isinstance(v, bool) else str(v) for v in vals]

    return {"g2": row(i2), "g3": row(i3), "checks": [[n, bool(ok)] for n, ok in checks]}


# -------------------------------------------------------------------- cli

# The problem of the golden adapted-basis CLI test; its output is frozen.
CLI_PROBLEM = {
    "g": 2,
    "d": 3,
    "U": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "gram": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    "U_A": [[1, 0], [0, -1], [0, 3], [0, 0]],
    "U_E": [[0, -1], [1, 0], [0, 0], [0, 3]],
}
PROBLEM_PLACEHOLDER = "{problem}"

# Period inputs use dyadic values and d a power of two, so every entry of T
# is exact in binary and the recorded bytes do not depend on how T is
# computed.
CLI_POOL = {
    "modular": [
        ["modular", "--d", d] + fmt
        for d in ("5", "7", "11", "12", "30", "97")
        for fmt in ([], ["--format", "tsv"])
    ],
    "invariants": [
        ["invariants", "--g", "2", "--d", "5"],
        ["invariants", "--g", "3", "--d", "4", "--format", "tsv"],
        ["invariants", "--g", "3", "--d", "9"],
        ["invariants", "table", "--g", "2", "--d-range", "3:12", "--format", "tsv"],
        ["invariants", "table", "--g", "3", "--d-range", "3:8"],
    ],
    # equal range widths, so every draw costs about the same
    "check": [
        ["check", "--d-range", "3:60"],
        ["check", "--d-range", "21:78", "--format", "tsv"],
        ["check", "--d-range", "43:100"],
    ],
    "adapted-basis": [
        ["adapted-basis", "--input", PROBLEM_PLACEHOLDER],
        ["adapted-basis", "--input", PROBLEM_PLACEHOLDER, "--format", "tsv"],
    ],
    "period": [
        ["period", "--g", "2", "--d", "4", "--Z", "[[[0.5, 2.0]]]", "--z", "0.25,1.5"],
        ["period", "--g", "2", "--d", "2", "--Z", "[[[-0.25, 1.0]]]", "--z", "1.5,0.5",
         "--format", "tsv"],
        ["period", "--g", "3", "--d", "4",
         "--Z", "[[[0, 1], [0.5, 0]], [[0.5, 0], [0, 2]]]", "--z", "0,1"],
        ["period", "--g", "3", "--d", "8",
         "--Z", "[[[0.25, 1.5], [0, 0.25]], [[0, 0.25], [-0.5, 1]]]", "--z", "0.5,0.75",
         "--format", "tsv"],
    ],
    "monodromy": [
        ["monodromy", "--g", "3", "--d", "2", "--case", "irregular"],
        ["monodromy", "--g", "2", "--d", "5", "--format", "tsv"],
        ["monodromy", "--g", "3", "--d", "7"],
    ],
    "polarization": [
        ["polarization", "--gram", "[[0, 3], [-3, 0]]"],
        ["polarization", "--gram", "[[0, 0, 2, 0], [0, 0, 0, 6], [-2, 0, 0, 0], [0, -6, 0, 0]]"],
        ["polarization", "--gram",
         "[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 5], [0, 0, -5, 0]]", "--format", "tsv"],
    ],
    "distinguish": [
        ["distinguish"],
        ["distinguish", "--a", "[[1, 0], [0, 1]]", "--b", "[[1, 0], [0, 1]]"],
        ["distinguish", "--g", "3", "--d", "2", "--format", "tsv"],
    ],
}
CLI_ROTATION = tuple(CLI_POOL)


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_input(seed: int, i: int) -> list[str]:
    pool = CLI_POOL[CLI_ROTATION[i % len(CLI_ROTATION)]]
    return list(_rng("cli", seed, i).choice(pool))


def cli_argv(argv: list[str], problem_path: str) -> list[str]:
    return [problem_path if a == PROBLEM_PLACEHOLDER else a for a in argv]


GENERATORS = {
    "lattice": lattice_input,
    "periods": periods_input,
    "levels": levels_input,
    "cli": cli_input,
}
OPS = {"lattice": lattice_op, "periods": periods_op, "levels": levels_op}
ENCODERS = {"lattice": lattice_encode, "periods": periods_encode, "levels": levels_encode}


# ---------------------------------------------------------------- digests

def digest_record(workload: str, out: dict) -> str:
    """The part of one encoded output that the workload digest covers:
    adapted vectors, table rows, T rounded to 1e-12, or CLI stdout."""
    if workload == "lattice":
        return json.dumps([out["vectors"], out["moved"]])
    if workload == "periods":
        return json.dumps([[round(x, 12) + 0.0 for x in v] for row in out["T"] for v in row])
    if workload == "levels":
        return json.dumps([out["g2"], out["g3"], out["checks"]])
    return out["stdout"]


def outputs_digest(workload: str, outputs: list[dict]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(digest_record(workload, out).encode())
        h.update(b"\n")
    return h.hexdigest()
