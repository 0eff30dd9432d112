"""Front end: dispatch, exit codes, golden transcripts, output stability."""

import ast
import itertools
import json
import pathlib
import time

import pytest

from midconvex import cli, dsl, engine, harness
from midconvex.errors import NotMidconvex
from midconvex.groups import GroupSubset

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_text(text, fmt="text"):
    return cli.run(dsl.parse(text), fmt=fmt)


@pytest.mark.parametrize(
    "name,text",
    [
        ("check_z4", "Z(4); {0}; check"),
        ("decompose_z15", "Z(15); {1,4,7,10,13}; decompose x=1"),
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
    ],
)
@pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
def test_golden_transcripts(name, text, fmt, ext):
    expected = (GOLDEN / f"{name}.{ext}").read_bytes()
    _, output = run_text(text, fmt)
    assert output.encode("utf-8") == expected


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


def test_z_check_decides_by_decomposition_with_the_pair_scan_witness():
    # every membership pattern of windows 1 to 12 wide, the empty one included, at two offsets
    from midconvex.intsets import IntWindowSet, decompose_z, midconvex_z_witness

    sets = 0
    for lo in (-3, 0):
        for width in range(1, 13):
            for mask in range(1 << width):
                window = IntWindowSet(lo, lo + width - 1, tuple(bool(mask >> i & 1) for i in range(width)))
                decided = cli._decided_witness(mask.bit_count(), decompose_z, midconvex_z_witness, window)
                assert decided == midconvex_z_witness(window), (lo, width, mask)
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


def test_check_rational_counterexamples():
    code, output = run_text("Q(gen=1, primes=[]); {0,2}; check", fmt="json")
    assert code == 1
    assert json.loads(output)["witness"] == {"x": "0", "y": "2", "z": "1"}
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
        "result: not midconvex: X - x has even index 1048576\nstats: elapsed_ms=0 count=0 seed=-\n",
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
    assert report["campaign"]["counts"]["grid_points"] == 0
    [mismatch] = report["campaign"]["mismatches"]
    assert mismatch["operation"] == "decomposition rejected the set"
    assert mismatch["rhs"] == "(0, 2, 1)"
