"""Front end: dispatch, exit codes, golden transcripts, output stability."""

import ast
import itertools
import json
import pathlib
import subprocess
import time

import pytest

from midconvex import cli, dsl, engine, groups, harness
from midconvex.errors import NotMidconvex
from midconvex.groups import GroupSubset, set_bits
from midconvex.rationals import RationalGroupDescriptor, RationalMidconvexDescription

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_text(text, fmt="text"):
    return cli.run(dsl.parse(text), fmt=fmt)


GOLDEN_CASES = [
    ("check_z4", "Z(4); {0}; check"),
    ("decompose_z15", "Z(15); {1,4,7,10,13}; decompose x=1"),
    ("decompose_z_window", "Z; {3,6,9,12}@window[0,12]; decompose"),
    # one member: C is the point [5,5] over H = Z, reported as modulus 0
    ("decompose_z_singleton", "Z; {5}@window[0,9]; decompose"),
    ("verify_theorem2", "Z; {0}@window[0,0]; verify --theorem 2 --max-order 12"),
    ("verify_theorem1", "Z; {0}@window[0,0]; verify --theorem 1"),
    # Z(13) is above the cap, but its 8,192 subsets are fewer than the 10,000
    # samples, so all are swept; its period-13 traces use the candidate table
    ("verify_theorem1_sampled", "Z; {0}@window[0,0]; verify --theorem 1 --max-order 13 --seed 7"),
    ("decompose_q2_unit", "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); decompose"),
    # the base's coarsest neighbour lies below it, so x is that point
    (
        "decompose_q2_below_base",
        "Q(gen=1, primes=[2]); conv[-3,0] ∩ ((1,[2]) + 0); decompose",
    ),
    ("decompose_q_points_x6", "Q(gen=1, primes=[]); {0,3,6,9}; decompose x=6"),
    # (1,2) has order 6, and with G_2 = Z(2)xZ(2) it spans the whole group
    ("closure_z2x6", "Z(2x6); {(0,1),(1,3)}; closure"),
    # the difference (3,9) generates a subgroup of order 9, odd index 81
    ("closure_z9x81", "Z(9x81); {(1,2),(4,11)}; closure"),
    (
        "verify_theorem3",
        "Q(gen=1, primes=[2]); conv[0,2] ∩ ((1,[2]) + 0); "
        "verify --theorem 3 --samples 200 --seed 5",
    ),
    ("verify_purity", "Z; {0}@window[0,0]; verify --theorem purity --seed 3"),
    # a finite trace is every integer k, here past k = 64, on the span of 0 and its members
    ("trace_q_points", "Q(gen=1, primes=[]); {0,1,2,500}; trace x=0 g=1"),
    # a described trace is C ∩ H over Z, read in closed form
    ("trace_q_described", "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); trace x=0 g=1/128"),
    # long lists written with spaces, read in one scan and echoed without them:
    # 2,000 distinct members in scrambled order, and a coset of 125 residue tuples
    (
        "check_z_window_2000",
        "Z; { %s }@window[-4000,3999]; check" % ", ".join(str(k * 7919 % 8000 - 4000) for k in range(2000)),
    ),
    (
        "decompose_z5x5x5x5x5",
        "Z(5x5x5x5x5); { %s }; decompose"
        % " , ".join("( %d , %d , %d , 0 , 1 )" % t for t in itertools.product(range(5), repeat=3)),
    ),
]
FORMATS = [("text", "txt"), ("json", "json")]


@pytest.mark.parametrize("name,text", GOLDEN_CASES)
@pytest.mark.parametrize("fmt,ext", FORMATS)
def test_golden_transcripts(name, text, fmt, ext):
    expected = (GOLDEN / f"{name}.{ext}").read_bytes()
    _, output = run_text(text, fmt)
    assert output.encode("utf-8") == expected


# every golden statement, run in one process, its outputs written as one JSON list
GOLDEN_SCRIPT = """
import json, sys
from midconvex import cli, dsl
json.dump([cli.run(dsl.parse(text), fmt=fmt)[1] for text, fmt in json.load(sys.stdin)], sys.stdout)
"""


def test_goldens_hold_on_the_declared_python_floor(installed_python):
    # pyproject.toml declares requires-python >= 3.10, so the sources must import and answer there
    python, env = installed_python("3.10")
    cases = [(name, text, fmt, ext) for name, text in GOLDEN_CASES for fmt, ext in FORMATS]
    done = subprocess.run(
        [python, "-c", GOLDEN_SCRIPT],
        input=json.dumps([(text, fmt) for _, text, fmt, _ in cases]),
        capture_output=True,
        encoding="utf-8",
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    outputs = json.loads(done.stdout)
    assert len(outputs) == len(cases) == 36
    for (name, _, _, ext), output in zip(cases, outputs):
        assert output.encode("utf-8") == (GOLDEN / f"{name}.{ext}").read_bytes(), f"{name}.{ext}"


def test_golden_exit_codes():
    assert run_text("Z(4); {0}; check")[0] == 1
    assert run_text("Z(15); {1,4,7,10,13}; decompose x=1")[0] == 0
    assert run_text("Z; {0}@window[0,0]; verify --theorem 2 --max-order 12")[0] == 0


def test_check_witness_in_report():
    code, output = run_text("Z(4); {0}; check", fmt="json")
    assert code == 1
    assert json.loads(output)["witness"] == {"x": "0", "y": "0", "z": "2"}


def test_check_passes_on_midconvex_inputs():
    assert run_text("Z(5); {2}; check")[0] == 0
    assert run_text("Z(15); {1,4,7,10,13}; check")[0] == 0
    assert run_text("Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); check")[0] == 0
    assert run_text("Q(gen=1, primes=[]); {0,3}; check")[0] == 0


def test_hull_check_on_a_dense_closure_is_fast():
    # 8 oracle rounds grow {-3/2,0,5/2} to 2,028 dyadic points, every round over all pairs
    started = time.perf_counter()
    code, output = run_text("Q(gen=1, primes=[2]); {-3/2,0,5/2}; verify --theorem hull", fmt="json")
    elapsed = time.perf_counter() - started
    assert code == 0 and json.loads(output)["campaign"]["counts"]["oracle_points"] == 2028
    assert elapsed < 2.0, elapsed


def window_pair_scan(window):
    """Reference: the first (x, y, z) over pairs x <= y of members in lexicographic order, z missing."""
    members = window.members
    inside = set(members)
    for i, x in enumerate(members):
        for y in members[i:]:
            if (x + y) % 2 == 0 and (x + y) // 2 not in inside:
                return x, y, (x + y) // 2
    return None


def test_z_check_decides_by_decomposition_with_the_pair_scan_witness():
    # every membership pattern of windows 1 to 12 wide, the empty one included, at two offsets
    from midconvex.intsets import IntWindowSet, decompose_z, midconvex_z_witness

    sets = 0
    for lo in (-3, 0):
        for width in range(1, 13):
            for mask in range(1 << width):
                window = IntWindowSet(lo, lo + width - 1, tuple(lo + i for i in set_bits(mask)))
                decided = cli._decided_witness(mask.bit_count(), decompose_z, midconvex_z_witness, window)
                assert decided == window_pair_scan(window), (lo, width, mask)
                sets += 1
    assert sets == 16380
    code, output = run_text("Z; {0,2,4,6}@window[0,6]; check", fmt="json")
    assert code == 1 and json.loads(output)["witness"] == {"x": "0", "y": "2", "z": "1"}


def test_finite_check_decides_by_theorem_2_with_the_pair_scan_witness():
    # every subset of every group up to order 10, the empty one included
    sets = 0
    for group in harness.enumerate_abelian_groups(10):
        for mask in range(1 << group.order):
            subset = GroupSubset(group, mask)
            decided = cli._decided_witness(
                subset.size, engine.decompose_periodic, engine.midconvex_witness, group, subset
            )
            assert decided == engine.midconvex_witness(group, subset), (str(group), mask)
            sets += 1
    assert sets == 3086
    code, output = run_text("Z(2x4); {(0,0),(0,2)}; check", fmt="json")
    assert code == 1 and json.loads(output)["witness"] == {"x": "(0,0)", "y": "(0,0)", "z": "(1,0)"}


# the 729 multiples of 729 in Z(3**12), listed
COSET = ",".join(str(k) for k in range(0, 3**12, 729))


@pytest.mark.parametrize(
    "text, witness",
    [
        (f"Z(531441); {{{COSET}}}; check", None),
        (
            "Z(531441); {%s}; check" % ",".join(n for n in COSET.split(",") if n != "218700"),
            {"x": "0", "y": "437400", "z": "218700"},
        ),
        ("Z(1048576); {3,5}; check", {"x": "3", "y": "3", "z": "524291"}),
    ],
    ids=["coset", "coset-minus-one", "pair-in-2-group"],
)
def test_finite_check_at_large_orders_is_fast(text, witness):
    # the per-pair halving masks of the scan took 36 s on the listed coset
    program = dsl.parse(text)
    started = time.perf_counter()
    code, output = cli.run(program, fmt="json")
    assert time.perf_counter() - started < 1
    assert code == (0 if witness is None else 1)
    assert json.loads(output)["witness"] == witness


@pytest.mark.parametrize("command, result", [("check", "midconvex"), ("decompose", "decomposed")])
def test_long_rational_progressions_are_decided_in_linear_time(command, result):
    # the pair scan visited all n**2/2 pairs of a midconvex set: 4.3 s at 8,000
    # points; Theorem 3 decides {0,...,19999} by counting its closure
    program = dsl.parse("Q(gen=1, primes=[]); {%s}; %s" % (",".join(map(str, range(20000))), command))
    started = time.perf_counter()
    code, output = cli.run(program)
    assert time.perf_counter() - started < 2
    assert code == 0 and f"result: {result}\n" in output


def test_check_rational_counterexamples():
    code, output = run_text("Q(gen=1, primes=[]); {0,2}; check", fmt="json")
    assert code == 1
    assert json.loads(output)["witness"] == {"x": "0", "y": "2", "z": "1"}
    # the closure has 1,000,001 members, above the listing cap: it is counted, not listed
    code, output = run_text("Q(gen=1, primes=[]); {0,1000000}; check", fmt="json")
    assert code == 1
    assert json.loads(output)["witness"] == {"x": "0", "y": "1000000", "z": "500000"}
    code, output = run_text(
        "Q(gen=1, primes=[]); conv[0,10] ∩ ((2,[]) + 0); check", fmt="json"
    )
    assert code == 1
    witness = json.loads(output)["witness"]
    assert witness is not None


def test_closure_reports():
    code, output = run_text("Z(4); {0}; closure", fmt="json")
    assert code == 0
    assert json.loads(output)["closure"] == "{0,1,2,3}"

    code, output = run_text("Z; {0,2}@window[-5,5]; closure", fmt="json")
    assert code == 0
    assert json.loads(output)["closure"] == "{0,1,2}"

    # a dense dyadic closure is reported by its description
    code, output = run_text("Q(gen=1, primes=[2]); {0,1}; closure")
    assert code == 0
    assert "closure: conv[0,1] ∩ ((1,[2]) + 0)\nstats: elapsed_ms=0 count=1 seed=-\n" in output


def test_closure_over_the_integers_is_exact():
    # the bounded midpoint iteration stopped after 8 rounds here, at 257 points
    code, output = run_text("Q(gen=1, primes=[]); {0,512}; closure", fmt="json")
    report = json.loads(output)
    assert code == 0 and report["result"] == "closure computed"
    assert report["closure"] == "{%s}" % ",".join(map(str, range(513)))
    assert report["stats"]["count"] == 513


def test_windowed_closure_is_fast():
    started = time.perf_counter()
    code, output = run_text("Z; {0,1536}@window[0,1536]; closure", fmt="json")
    assert time.perf_counter() - started < 0.5
    assert code == 0 and json.loads(output)["closure"] == "{%s}" % ",".join(map(str, range(0, 1537, 3)))


@pytest.mark.parametrize("text, order", [("Z(1024); {7}; closure", 1024), ("Z(4096); {1,2}; closure", 4096)])
def test_finite_closure_above_the_table_cap_is_fast(text, order):
    # a 2-group is its own Sylow 2-subgroup, so every closure is the whole group
    started = time.perf_counter()
    code, output = run_text(text, fmt="json")
    assert time.perf_counter() - started < 2
    assert code == 0 and json.loads(output)["closure"] == "{%s}" % ",".join(map(str, range(order)))


# Statements at the group-order cap 2**20. The bounds are about four times the
# times taken on a 2-vCPU Xeon: closure 2.0 s, trace 0.7 s, decompose 0.03 s.


def test_closure_at_the_order_cap_lists_the_whole_group():
    started = time.perf_counter()
    code, output = run_text("Z(1048576); {3,5}; closure", fmt="json")
    assert time.perf_counter() - started < 8
    report = json.loads(output)
    assert code == 0 and report["stats"]["count"] == 1 << 20
    assert report["closure"] == "{%s}" % ",".join(map(str, range(1 << 20)))


def test_trace_at_the_order_cap():
    started = time.perf_counter()
    code, output = run_text("Z(1048576); {3,5}; trace x=3 g=1", fmt="json")
    assert time.perf_counter() - started < 3
    assert code == 0 and json.loads(output)["trace"] == "{0,2} mod 1048576"


def test_decompose_at_the_order_cap():
    started = time.perf_counter()
    # 2**20 - 1 = 3 * 5**2 * 11 * 31 * 41; 1023 generates a subgroup of order 1025
    coset = [5 + 1023 * k for k in range(1025)]
    code, output = run_text("Z(1048575); {%s}; decompose" % ",".join(map(str, coset)), fmt="json")
    decomposition = json.loads(output)["decomposition"]
    assert code == 0 and decomposition["x"] == "5"
    assert decomposition["H"]["modulus"] == 1023
    assert decomposition["H"]["elements"] == [str(k * 1023) for k in range(1025)]
    # a 2-group has no proper subgroup of odd index
    assert run_text("Z(1048576); {3}; decompose") == (
        1,
        "command: decompose\ngroup: Z(1048576)\nset: {3}\n"
        "result: not midconvex: X - x has even index 1048576\nstats: elapsed_ms=0 count=1 seed=-\n",
    )
    assert run_text("Z(1048576); {3,5}; decompose")[0] == 1
    assert time.perf_counter() - started < 0.5


def test_closure_too_large_to_list_is_a_resource_exit():
    # 2**19 closes to every integer in between, one more than the cap
    started = time.perf_counter()
    code, output = run_text("Q(gen=1, primes=[]); {0,524288}; closure")
    assert time.perf_counter() - started < 0.5
    assert code == cli.EXIT_RESOURCE
    assert "result: resource: 524289 lattice points to list, cap is 500000\n" in output


@pytest.mark.parametrize(
    "group,empty", [("Z(4)", "{}"), ("Z", "{}@window[0,5]"), ("Q(gen=1, primes=[2])", "{}")]
)
def test_empty_closures_are_unchanged(group, empty):
    code, output = run_text(f"{group}; {empty}; closure")
    assert code == 0
    assert output.endswith("result: closure computed\nclosure: {}\nstats: elapsed_ms=0 count=0 seed=-\n")


def test_trace_reports():
    code, output = run_text("Z(15); {1,4,7,10,13}; trace x=1 g=2", fmt="json")
    assert code == 0
    assert json.loads(output)["trace"] == "{0,3,6,9,12} mod 15"

    code, output = run_text("Z; {0,3,6,9}@window[0,9]; trace x=0 g=3", fmt="json")
    assert code == 0
    assert json.loads(output)["trace"] == "{0,1,2,3}@window[0,3]"



def test_a_trace_base_need_not_be_a_member():
    # one rule on every route: x must be in the group, not in X
    for text, trace, count in [
        ("Z(3); {1}; trace x=0 g=1", "{1} mod 3", 3),
        ("Z(6); {}; trace x=5 g=2", "{} mod 3", 3),
        ("Z; {1}@window[0,9]; trace x=0 g=1", "{1}@window[0,9]", 10),
        ("Q(gen=1, primes=[]); {1,2}; trace x=0 g=1", "{1,2}@window[0,2]", 3),
    ]:
        code, output = run_text(text, fmt="json")
        report = json.loads(output)
        assert (code, report["trace"], report["stats"]["count"]) == (0, trace, count), text
    code, output = run_text("Z(3); {1}; trace x=3 g=1")
    assert code == 2 and "result: error: trace base 3 is outside Z(3)\n" in output, output

def test_decompose_exit_codes_and_reports():
    code, output = run_text("Z; {0,3,6,9}@window[0,9]; decompose x=0", fmt="json")
    assert code == 0
    dec = json.loads(output)["decomposition"]
    assert dec["C"] == {"lower": "0", "upper": "9", "inclusive": True}
    assert dec["H"]["modulus"] == 3 and dec["x"] == "0"

    assert run_text("Z; {0,2,4}@window[0,9]; decompose x=0")[0] == 1
    assert run_text("Z(4); {0,2}; decompose")[0] == 1

    code, output = run_text(
        "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); decompose", fmt="json"
    )
    assert code == 0
    dec = json.loads(output)["decomposition"]
    assert dec["H"] == {"gen": "1", "primes": [2], "modulus": None}

    code, output = run_text("Q(gen=1, primes=[]); {0,3,6,9}; decompose", fmt="json")
    assert code == 0
    assert json.loads(output)["decomposition"]["H"]["gen"] == "3"


def test_decompose_rational_rejects_off_lattice_points():
    # 5 sits off the lattice seeded by {0, 3}; the exact finite check
    # must flag the set before any lattice scan can miss it
    code, output = run_text("Q(gen=1, primes=[]); {0,3,5}; decompose", fmt="json")
    assert code == 1
    assert json.loads(output)["witness"] == {"x": "3", "y": "5", "z": "4"}


@pytest.mark.parametrize(
    "text,witness",
    [
        ("Q(gen=1, primes=[]); conv[0,10] ∩ ((2,[]) + 0)", {"x": "0", "y": "2", "z": "1"}),
        (
            "Q(gen=1, primes=[3]); conv[0,4] ∩ ((2,[3]) + 0)",
            {"x": "0", "y": "2", "z": "1"},
        ),
    ],
)
def test_decompose_decides_described_sets_first(text, witness):
    code, output = run_text(f"{text}; decompose", fmt="json")
    assert code == 1
    report = json.loads(output)
    assert report["result"] == "not midconvex"
    assert report["decomposition"] is None
    assert report["witness"] == witness
    assert json.loads(run_text(f"{text}; check", fmt="json")[1])["witness"] == witness


def test_decompose_points_based_at_the_largest_member():
    code, output = run_text("Q(gen=1, primes=[]); {0,3,6,9}; decompose x=9")
    assert code == 0
    assert "result: decomposed\n" in output
    assert "decomposition: C=[0,9] H=(3,[]) x=6\n" in output


@pytest.mark.parametrize("x", [1, 3])
def test_decompose_described_probes_around_the_given_base(x):
    code, output = run_text(f"Q(gen=1, primes=[]); conv[0,5] ∩ ((1,[]) + 0); decompose x={x}")
    assert code == 0
    assert f"decomposition: C=[0,5] H=(1,[]) x={x}\n" in output


@pytest.mark.parametrize(
    "text,decomposition,seconds",
    [
        ("Q(gen=1, primes=[2,3]); conv[0,5] ∩ ((1,[2,3]) + 0)", "C=[0,5] H=(1,[2,3]) x=0", 1),
        ("Q(gen=1, primes=[5]); conv[0,2] ∩ ((1,[5]) + 0)", "C=[0,2] H=(1,[5]) x=0", 1),
        ("Q(gen=1, primes=[3]); conv[0,1] ∩ ((1,[3]) + 0)", "C=[0,1] H=(1,[3]) x=0", 1),
        ("Q(gen=1/1000000, primes=[]); {0,1/1000000}", "C=[0,1/1000000] H=(1/1000000,[]) x=0", 1),
        (
            "Q(gen=3/2, primes=[2,3]); conv[-inf,inf] ∩ ((3,[2]) + 3/2); decompose x=3/2",
            "C=[-inf,inf] H=(3,[2]) x=3/2",
            5,
        ),
        # a side the set leaves unbounded is reported so; a finite one keeps
        # the end that the lattice reaches
        ("Q(gen=1, primes=[2]); conv[-inf,inf] ∩ ((1,[2]) + 0)", "C=[-inf,inf] H=(1,[2]) x=0", 1),
        ("Q(gen=1, primes=[2]); conv[0,inf] ∩ ((1,[2]) + 0)", "C=[0,inf] H=(1,[2]) x=0", 1),
        ("Q(gen=1, primes=[]); conv[-inf,5/2] ∩ ((1,[]) + 0)", "C=[-inf,2] H=(1,[]) x=0", 1),
        ("Q(gen=1, primes=[]); conv[-1/2,inf] ∩ ((1,[]) + 0)", "C=[0,inf] H=(1,[]) x=0", 1),
    ],
)
def test_decompose_reads_each_set_on_its_own_lattice(text, decomposition, seconds):
    # the second point is the base's coarsest neighbour, so none of these
    # runs out of lattice points on a needlessly fine level
    statement = text if "decompose" in text else f"{text}; decompose"
    started = time.perf_counter()
    code, output = run_text(statement)
    assert time.perf_counter() - started < seconds
    assert code == 0
    assert f"decomposition: {decomposition}\n" in output


def test_decompose_rational_singleton():
    code, output = run_text("Q(gen=1, primes=[]); {5}; decompose", fmt="json")
    assert code == 0
    dec = json.loads(output)["decomposition"]
    assert dec["C"] == {"lower": "5", "upper": "5", "inclusive": True}


def test_verify_other_theorems():
    assert run_text("Z; {0}@window[0,0]; verify --theorem 1 --max-order 6")[0] == 0
    assert run_text("Z; {0}@window[0,0]; verify --theorem lemma1 --max-order 6")[0] == 0
    assert run_text("Z; {0}@window[0,0]; verify --theorem purity --samples 20")[0] == 0
    assert run_text("Q(gen=1, primes=[]); {0,2}; verify --theorem hull")[0] == 0
    assert (
        run_text(
            "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); "
            "verify --theorem 3 --samples 100 --seed 1"
        )[0]
        == 0
    )


def test_verify_theorem1_default_size():
    _, out = run_text("Z; {0}@window[0,0]; verify --theorem 1", fmt="json")
    assert json.loads(out)["campaign"]["counts"]["subsets"] == 3086


@pytest.mark.parametrize(
    "text,size",
    [
        ("Z; {0}@window[0,0]; verify --theorem 1", "--max-order 0"),
        ("Z; {0}@window[0,0]; verify --theorem lemma1", "--max-order 0"),
        ("Z; {0}@window[0,0]; verify --theorem purity", "--samples 0"),
        ("Q(gen=1, primes=[2]); {0,1}; verify --theorem hull", "--samples 0"),
        ("Q(gen=1, primes=[2]); conv[0,2] ∩ ((1,[2]) + 0); verify --theorem 3", "--samples 0"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_size_zero_means_the_default(text, size, fmt):
    assert run_text(f"{text} {size}", fmt) == run_text(text, fmt)


@pytest.mark.parametrize(
    "text,flag",
    [
        ("Z(15); {1}; verify --theorem 2 --samples 5", "--samples"),
        ("Z(15); {1}; verify --theorem 1 --samples 5", "--samples"),
        ("Z(15); {1}; verify --theorem lemma1 --samples 0", "--samples"),
        ("Z(15); {1}; verify --theorem purity --max-order 3", "--max-order"),
        ("Z; {0,4}@window[0,4]; verify --theorem hull --max-order 3", "--max-order"),
        ("Q(gen=1, primes=[2]); conv[0,2] ∩ ((1,[2]) + 0); verify --theorem 3 --max-order 3", "--max-order"),
    ],
)
def test_verify_rejects_size_flags_the_theorem_ignores(text, flag):
    code, output = run_text(text)
    assert code == cli.EXIT_USAGE
    theorem = text.split("--theorem ")[1].split()[0]
    assert f"result: error: verify --theorem {theorem} takes no {flag}\n" in output


# each cap is the largest size at which the slowest campaign it sizes, theorem
# 1 or purity, was measured to finish in about 10 s
MAX_ORDER, SAMPLES = ("--max-order", 68), ("--samples", 30_000)


@pytest.mark.parametrize(
    "text,size,campaign,keyword",
    [
        ("Z; {0}@window[0,0]; verify --theorem 1", MAX_ORDER, "exhaustive_theorem1", "max_order"),
        ("Z; {0}@window[0,0]; verify --theorem 2", MAX_ORDER, "exhaustive_theorem2", "max_order"),
        ("Z; {0}@window[0,0]; verify --theorem lemma1", MAX_ORDER, "exhaustive_lemma1", "max_order"),
        ("Z; {0}@window[0,0]; verify --theorem purity", SAMPLES, "sample_two_purity", "trials"),
        ("Q(gen=1, primes=[2]); {0,1}; verify --theorem hull", SAMPLES, "conjecture_hull_check", "samples"),
        ("Q(gen=1, primes=[2]); conv[0,2] ∩ ((1,[2]) + 0); verify --theorem 3", SAMPLES, "roundtrip_theorem3", "samples"),
    ],
)
def test_verify_sizes_are_capped_before_any_work(monkeypatch, text, size, campaign, keyword):
    # the campaign is replaced by a stub: a campaign at the cap takes about 10 s
    flag, cap = size
    sizes = []

    def stub(*args, **kwargs):
        sizes.append(kwargs[keyword])
        return harness.VerificationReport("stub", counts={"subsets": 0, "pairs": 0, "oracle_points": 0, "samples": 0})

    monkeypatch.setattr(harness, campaign, stub)
    assert run_text(f"{text} {flag} {cap}")[0] == cli.EXIT_OK and sizes == [cap]
    code, output = run_text(f"{text} {flag} {cap + 1}")
    assert code == cli.EXIT_RESOURCE and sizes == [cap]
    assert f"result: resource: {flag} {cap + 1} is above the campaign size cap, cap is {cap}\n" in output


@pytest.mark.parametrize(
    "text,flag,campaign",
    [
        ("Z; {0}@window[0,0]; verify --theorem 1", "--max-order", "exhaustive_theorem1"),
        ("Z; {0}@window[0,0]; verify --theorem 2", "--max-order", "exhaustive_theorem2"),
        ("Z; {0}@window[0,0]; verify --theorem lemma1", "--max-order", "exhaustive_lemma1"),
        ("Z(4); {0}; verify --theorem purity", "--samples", "sample_two_purity"),
        ("Q(gen=1, primes=[]); {0,2}; verify --theorem hull", "--samples", "conjecture_hull_check"),
        ("Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); verify --theorem 3", "--samples", "roundtrip_theorem3"),
    ],
)
@pytest.mark.parametrize("size", [-1, -7])
def test_verify_rejects_negative_sizes_before_any_work(monkeypatch, text, flag, campaign, size):
    # a negative size once ran and reported a pass with a negative count
    monkeypatch.setattr(harness, campaign, lambda *args, **kwargs: pytest.fail("campaign ran"))
    code, output = run_text(f"{text} {flag} {size}")
    assert code == cli.EXIT_USAGE
    assert f"result: error: {flag} {size} is negative\n" in output


def test_wide_z_windows_are_answered_from_their_members():
    # a window set is held as its members, so its width costs nothing; a
    # window of 2 * 10**7 integers once took 0.9 s to trace, and a wider one exited 3
    wide, widest = "{0,5}@window[%d,%d]" % (-10**10, 10**10), "{0,5,10,15}@window[%d,%d]" % (-10**18, 10**18)
    cases = [
        (f"Z; {wide}; check", "result: midconvex\n"),
        (f"Z; {wide}; decompose", "decomposition: C=[0,5] H=5Z x=0\n"),
        (f"Z; {wide}; trace x=0 g=1", f"trace: {wide}\n"),
        (f"Z; {wide}; closure", "closure: {0,5}\n"),
        (f"Z; {widest}; check", "result: midconvex\n"),
        (f"Z; {widest}; trace x=0 g=5", "trace: {0,1,2,3}@window[-200000000000000000,200000000000000000]\n"),
    ]
    for text, answer in cases:
        program = dsl.parse(text)
        started = time.perf_counter()
        code, output = cli.run(program)
        assert time.perf_counter() - started < 0.5, text
        assert code == cli.EXIT_OK and answer in output, (text, output)


# the width of the window cap that binding once enforced (exit 3 above it)
FORMER_WINDOW_CAP = 20_000_000


def test_z_windows_are_capped_at_bind_time():
    # a window of 2 * 10**10 + 1 integers once died allocating its mask, and a
    # bind-time cap then refused it; binding now keeps the bounds and the members only
    assert not hasattr(cli, "WINDOW_CAP")
    cap = FORMER_WINDOW_CAP
    for lo, hi in [(-cap // 2, cap - cap // 2 - 1), (-cap // 2, cap - cap // 2), (-10**10, 10**10)]:
        window = cli._bind_set("zed", None, dsl.ExplicitSetExpr((5, 0, 5), (lo, hi)))[1]
        assert (window.lo, window.hi, window.members) == (lo, hi, (0, 5))


@pytest.mark.parametrize("command", ["check", "decompose"])
def test_windows_at_the_cap_decompose_on_the_mask(command):
    # reading a window of the former cap width once walked its mask (0.12 s,
    # 2-vCPU Xeon); it is now read from the members alone
    cap = FORMER_WINDOW_CAP
    program = dsl.parse(f"Z; {{0,5,10,15}}@window[{-cap // 2},{cap - cap // 2 - 1}]; {command}")
    started = time.perf_counter()
    code, output = cli.run(program)
    assert time.perf_counter() - started < 0.5
    assert code == 0
    assert ("result: midconvex\n" if command == "check" else "decomposition: C=[0,15] H=5Z x=0\n") in output


@pytest.mark.parametrize("command", ["check", "decompose"])
@pytest.mark.parametrize("members,count",[("0,0,2", 2), ("0,3,3,6", 3), ("6,3,0,3,6", 3)])
def test_count_is_the_number_of_distinct_members_on_every_route(command, members, count):
    outputs = [
        run_text(f"{group}; {{{members}}}{window}; {command}", fmt="json")
        for group, window in [("Z(9)", ""), ("Z", "@window[0,6]"), ("Q(gen=1, primes=[])", "")]
    ]
    codes = {code for code, _ in outputs}
    assert len(codes) == 1
    assert [json.loads(out)["stats"]["count"] for _, out in outputs] == [count] * 3


def test_large_product_closure_is_whole_mask():
    # Z(1024x1024) is its own Sylow 2-subgroup, so the closure lists all 2**20
    # elements; 1.5 s measured (2-vCPU Xeon), 3.2 s for a translate and a
    # subgroup built one member at a time
    started = time.perf_counter()
    code, output = run_text("Z(1024x1024); {(0,3),(0,5)}; closure")
    assert time.perf_counter() - started < 6
    assert code == 0 and "stats: elapsed_ms=0 count=1048576 seed=-" in output


def test_cli_names_no_private_of_another_module():
    # the command line binds input and renders output; the routes live in the library
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    modules = {"dsl", "engine", "errors", "groups", "harness", "intsets", "rationals"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not any(alias.name.startswith("_") for alias in node.names), ast.dump(node)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            assert not node.attr.startswith("_"), f"{node.value.id}.{node.attr}"
            assert (node.value.id, node.attr) != ("harness", "bounded_closure_oracle")


def test_usage_errors_exit_2():
    # windows are mandatory for explicit Z sets
    assert run_text("Z; {0,1}; check")[0] == 2
    # element outside the group
    assert run_text("Z(3); {7}; check")[0] == 2
    # element outside the window
    assert run_text("Z; {0,9}@window[0,4]; check")[0] == 2
    # described sets have no finite-group reading
    assert run_text("Z(4); conv[0,1] ∩ ((1,[]) + 0); check")[0] == 2
    # closure of a described set is not computed
    assert run_text("Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); closure")[0] == 2
    # theorem 3 verification needs a described set
    assert run_text("Z(4); {0}; verify --theorem 3")[0] == 2
    # non-prime in a descriptor
    assert run_text("Q(gen=1, primes=[4]); {0}; check")[0] == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("Z(0); {}; check", "cyclic factor orders must be >= 1, got (0,)"),
        ("Z(4); {0}@window[0,3]; check", "windows apply to Z sets only"),
        ("Z; {1}@window[5,2]; check", "empty window [5,2]"),
        ("Q(gen=1, primes=[]); conv[0,1] ∩ ((1,[]) + 5); check", "base point must lie in the interval"),
        (
            "Q(gen=1, primes=[]); conv[0,1] ∩ ((1,[]) + 1/2); check",
            "description base point is not in the ambient group",
        ),
        ("Z(4); {0}; decompose x=1", "decomposition base point must be a member"),
        ("Q(gen=1, primes=[]); {}; decompose", "cannot decompose the empty set"),
        ("Q(gen=1, primes=[]); {}; verify --theorem hull", "hull verification needs a nonempty set"),
        ("Z(4); {0,2}; verify --theorem hull", "hull verification needs an explicit set"),
        # 1/399165290221 = 798330580441/n lies in Z[1/n], but n is a pseudoprime above 2**64
        (
            "Q(gen=1, primes=[318665857834031151167461]); {0,1/399165290221}; check",
            "primality of 318665857834031151167461 is decided only below 2**64",
        ),
    ],
)
def test_rejected_inputs_exit_2_with_their_message(text, message):
    code, output = run_text(text)
    assert code == cli.EXIT_USAGE
    assert f"result: error: {message}\n" in output


def test_a_group_above_the_order_cap_is_a_resource_exit():
    code, output = run_text("Z(2097152); {0}; check")
    assert code == cli.EXIT_RESOURCE
    assert f"result: resource: group order 2097152 exceeds cap {groups.ORDER_CAP}\n" in output


def test_verify_purity_reports_a_planted_formula_fault(monkeypatch):
    # the formula read flipped disagrees with the sampler on every pair
    is_two_pure = harness.is_two_pure
    monkeypatch.setattr(harness, "is_two_pure", lambda sub, group: not is_two_pure(sub, group))
    text = "Z; {0}@window[0,0]; verify --theorem purity --samples 5 --seed 3"
    assert "mismatches: 5\n" in run_text(text)[1]
    code, output = run_text(text, fmt="json")
    mismatches = json.loads(output)["campaign"]["mismatches"]
    assert code == cli.EXIT_COUNTEREXAMPLE and len(mismatches) == 5
    for m in mismatches:
        assert m["operation"] == "is_two_pure formula vs sampled implication"
        # lhs is the flipped formula, rhs whether the sampler found no violation
        assert m["lhs"] != m["rhs"] and (m["violation"] == "None") == m["rhs"]
    assert mismatches[1] == {
        "group": "(1,[5])",
        "subset": "(6,[5])",
        "operation": "is_two_pure formula vs sampled implication",
        "lhs": True,
        "rhs": False,
        "violation": "3",
    }


def test_verify_hull_reports_candidate_points_outside_a_completed_closure(monkeypatch):
    # a closure over a third of the generator holds points the oracle never reaches
    rational_closure = engine.rational_closure

    def too_fine(group, start):
        c = rational_closure(group, start)
        return RationalMidconvexDescription(c.interval, RationalGroupDescriptor(c.subgroup.gen / 3), c.base)

    monkeypatch.setattr(engine, "rational_closure", too_fine)
    code, output = run_text("Q(gen=1, primes=[]); {0,2}; verify --theorem hull", fmt="json")
    campaign = json.loads(output)["campaign"]
    assert code == cli.EXIT_COUNTEREXAMPLE and campaign["details"]["oracle_complete"] is True
    candidate = "conv[0,2] ∩ ((1/3,[]) + 0)"
    assert campaign["mismatches"] == [
        {
            "group": "(1,[])",
            "subset": "{0,2}",
            "operation": "candidate point outside completed closure",
            "lhs": candidate,
            "rhs": point,
        }
        for point in ("1/3", "2/3", "4/3", "5/3")
    ]


def test_json_output_is_stable():
    first = run_text("Z(15); {1,4,7,10,13}; decompose x=1", fmt="json")
    second = run_text("Z(15); {1,4,7,10,13}; decompose x=1", fmt="json")
    assert first == second
    seeded_a = run_text("Z; {0}@window[0,0]; verify --theorem purity --seed 9", fmt="json")
    seeded_b = run_text("Z; {0}@window[0,0]; verify --theorem purity --seed 9", fmt="json")
    assert seeded_a == seeded_b


def test_main_reads_files_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "input.mcx"
    path.write_text("Z(4); {0}; check\n", encoding="utf-8")
    assert cli.main([str(path)]) == 1
    assert "witness: x=0 y=0 z=2" in capsys.readouterr().out

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("Z(5); {2}; check"))
    assert cli.main([]) == 0
    assert "result: midconvex" in capsys.readouterr().out


def test_literals_past_the_digit_limit_exit_2(tmp_path, capsys, digit_limit):
    # int() refuses a literal longer than the limit: this ended in a traceback and exit 1
    long = "9" * 5000
    for text, col in [
        (f"Z; {{1}}@window[0,{long}]; check", 17),
        (f"Q(gen=1, primes=[2]); {{1/{long}}}; check", 26),
        (f"Z(4); {{1,{long}}}; check", 10),
    ]:
        path = tmp_path / "input.mcx"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["--format", "json", str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith(f"1:{col}: ") and error.endswith(f"has more than {digit_limit} digits"), error


def test_binding_a_finite_list_boxes_no_element(monkeypatch):
    built = []
    post_init = groups.GroupElement.__post_init__
    monkeypatch.setattr(groups.GroupElement, "__post_init__", lambda self: built.append(1) or post_init(self))
    cube = list(itertools.product(range(5), range(5), range(5), [1], [4]))
    for text, indices in [
        ("Z(5x5x5x5x5); {%s}; check" % ",".join(map(str, cube)), [625 * a + 125 * b + 25 * c + 9 for a, b, c, _, _ in cube]),
        ("Z(2187); {%s}; check" % ",".join(map(str, range(1, 2187, 27))), range(1, 2187, 27)),
        ("Z(6); {}; check", []),
    ]:
        program = dsl.parse(text)
        group = groups.make_group(program.group.orders)
        assert cli._bind_set("finite", group, program.set_expr) == ("subset", GroupSubset.from_indices(group, indices))
    assert built == []
    # a list that does not fit names its first misfit, as binding each element did
    for text, error in [
        ("Z(6); {1,7,9}; check", "element 7 is outside Z(6)"),
        ("Z(6x6); {(1,2),(3,6),(6,0)}; check", "element (3,6) is outside Z(6x6)"),
        ("Z(6x6); {(1,2),(3),3}; check", "element (3) has wrong arity for Z(6x6)"),
        ("Z(6x6); {(1,2),3}; check", "element 3 does not fit Z(6x6)"),
        ("Z(6); {(1),1/2}; check", "element 1/2 does not fit Z(6)"),
        ("Z; {1,1/2,9}@window[0,5]; check", "element 1/2 is not an integer"),
        ("Z; {1,9,-1}@window[0,5]; check", "element 9 is outside the window [0,5]"),
    ]:
        code, output = run_text(text)
        assert code == 2 and f"result: error: {error}\n" in output, text
    # a cyclic group's residues may be written as 1-tuples, alone or mixed with integers
    assert "count=2" in run_text("Z(6); {(1),3}; check")[1]


def test_a_mixed_finite_list_is_bound_element_by_element():
    # 1-tuples mixed with integers miss the column reading, so each element is bound alone
    code, output = run_text("Z(3); {(0),1}; check")
    assert code == 1 and "witness: x=0 y=1 z=2\n" in output, output
    code, output = run_text("Z(3); {(0),1}; closure")
    assert code == 0 and "closure: {0,1,2}\n" in output, output


def test_a_trace_direction_is_bound_on_every_route():
    for text, error in [
        ("Q(gen=1, primes=[]); {0,1,2}; trace x=0 g=1/2", "trace direction 1/2 is not a member of the ambient group (1,[])"),
        ("Q(gen=1, primes=[]); {0,1,2}; trace x=0 g=(1,2)", "trace direction (1,2) is not a rational"),
        ("Z; conv[0,10] ∩ ((1,[]) + 0); trace x=0 g=1/2", "trace direction 1/2 is not a member of the ambient group (1,[])"),
        ("Z; {0,1}@window[0,5]; trace x=0 g=1/2", "trace direction 1/2 is not an integer"),
        ("Z(6); {0,1}; trace x=0 g=7", "trace direction 7 is outside Z(6)"),
    ]:
        code, output = run_text(text)
        assert code == 2 and f"result: error: {error}\n" in output, (text, output)
    code, output = run_text("Q(gen=1, primes=[2]); {0,1,2}; trace x=0 g=1/2")
    assert code == 0 and "trace: {0,2,4}@window[0,4]\n" in output, output


def test_main_parse_error_exit(capsys):
    assert cli.main(["/nonexistent/input.mcx"]) == 2
    capsys.readouterr()
    import io
    import sys

    sys.stdin = io.StringIO("Z(4); {0}; chutney")
    try:
        assert cli.main([]) == 2
    finally:
        sys.stdin = sys.__stdin__
    assert "error" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_read_errors_exit_2_in_the_chosen_format(tmp_path, capsys, fmt):
    # a file that is not UTF-8 ended in a decoding traceback with exit 1
    path = tmp_path / "input.mcx"
    path.write_bytes(b"Z(4); {0}; check\xff")
    for target in (path, tmp_path / "missing.mcx", tmp_path):
        assert cli.main(["--format", fmt, str(target)]) == 2
        out = capsys.readouterr().out
        if fmt == "json":
            assert list(json.loads(out)) == ["error"], out
        else:
            assert out.startswith("error: ") and out.count("\n") == 1, out


def test_main_rejects_bad_jobs(tmp_path, capsys):
    # campaigns run on one worker and take no --jobs option
    path = tmp_path / "input.mcx"
    path.write_text("Z(4); {0}; check\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--jobs", "4", str(path)])
    assert exc.value.code == 2


def test_timings_flag_only_touches_elapsed(tmp_path):
    program = dsl.parse("Z(15); {1,4,7,10,13}; decompose x=1")
    _, plain = cli.run(program, fmt="json")
    _, timed = cli.run(program, fmt="json", timings=True)
    a, b = json.loads(plain), json.loads(timed)
    assert a["stats"].pop("elapsed_ms") == 0
    assert isinstance(b["stats"].pop("elapsed_ms"), int)
    assert a == b


def test_timings_flag_reaches_the_campaign(monkeypatch):
    # every clock read advances one second
    ticks = itertools.count()
    monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
    program = dsl.parse("Z; {0}@window[0,0]; verify --theorem 2 --max-order 3")
    plain = json.loads(cli.run(program, fmt="json")[1])
    timed = json.loads(cli.run(program, fmt="json", timings=True)[1])
    assert plain["campaign"]["elapsed_ms"] == 0 and plain["stats"]["elapsed_ms"] == 0
    # the campaign reads the clock once at each end
    assert timed["campaign"]["elapsed_ms"] == 1000
    assert timed["stats"]["elapsed_ms"] >= timed["campaign"]["elapsed_ms"]


def test_verify_theorem3_rejects_an_impure_description():
    # the sampler's purity precondition fires before any decomposition
    code, out = run_text("Q(gen=1, primes=[]); conv[0,10] ∩ ((2,[]) + 0); verify --theorem 3")
    assert code == cli.EXIT_USAGE
    assert "result: error: description subgroup is not two-pure in the ambient group" in out


def test_verify_theorem3_reports_a_rejected_decomposition(monkeypatch):
    def reject(group, members, x=None):
        raise NotMidconvex("midpoint 1 of 0 and 2 is missing", witness=(0, 2, 1))

    monkeypatch.setattr(engine, "decompose_rational_set", reject)
    code, out = run_text(
        "Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); verify --theorem 3 --samples 10",
        fmt="json",
    )
    report = json.loads(out)
    assert code == cli.EXIT_COUNTEREXAMPLE and report["result"] == "fail"
    assert report["campaign"]["counts"] == {"samples": 10}
    [mismatch] = report["campaign"]["mismatches"]
    assert mismatch["operation"] == "decomposition rejected the set"
    assert mismatch["rhs"] == "(0,2,1)"


def test_verify_theorem3_over_eleven_primes_is_fast():
    # the round trip is compared in closed form, so its cost does not grow
    # with the 3^11 denominators that a grid over these primes would read
    primes = ",".join(map(str, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    started = time.perf_counter()
    code, out = run_text(
        f"Q(gen=1, primes=[{primes}]); conv[0,1] ∩ ((1,[{primes}]) + 0); verify --theorem 3 --samples 100",
        fmt="json",
    )
    assert time.perf_counter() - started < 1
    report = json.loads(out)
    assert code == 0 and report["result"] == "pass"
    assert report["campaign"]["mismatches"] == [] and report["campaign"]["counts"] == {"samples": 100}
