import json
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from spintori import TorusClass, cli, format_matrix_text, tori, torus_matrix

GOLDEN = Path(__file__).parent / "golden"


def run(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "spintori", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
    )


class TestEnumerate:
    def test_degree_two_plus(self):
        res = run("enumerate", "--l", "2", "--form", "plus")
        assert res.returncode == 0
        assert res.stdout == "1,1\n-1,-1\n2:+\n2:-\n4 classes\n"

    def test_degree_four_minus_count(self):
        res = run("enumerate", "--l", "4", "--form", "minus")
        assert res.returncode == 0
        assert res.stdout.endswith("9 classes\n")
        assert len(res.stdout.splitlines()) == 10

    def test_rejects_degree_one(self):
        res = run("enumerate", "--l", "1", "--form", "plus")
        assert res.returncode == 2

    def test_requires_form(self):
        res = run("enumerate", "--l", "2")
        assert res.returncode == 2

    def test_reader_closing_early_is_not_an_error(self):
        # spintori enumerate --l 30 --form plus | head -1
        with subprocess.Popen(
            [sys.executable, "-m", "spintori", "enumerate", "--l", "30", "--form", "plus"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert first == "1," * 29 + "1\n"
        assert err == ""


class TestStructure:
    def test_text_output(self):
        res = run("structure", "--type", "2,2", "--q", "3")
        assert res.returncode == 0
        assert res.stdout == (
            "type: 2,2:+\n"
            "l: 4\n"
            "form: +\n"
            "split: + (defaulted)\n"
            "case: iii\n"
            "structure: Z_{q^2-1} x Z_{q+1} x Z_{q-1}\n"
            "q: 3\n"
            "orders: 2, 4, 8\n"
            "invariants: 2, 4, 8\n"
            "oracle: 2, 4, 8\n"
            "verdict: MATCH\n"
        )

    def test_explicit_split_tag(self):
        res = run("structure", "--type", "2,2:-", "--q", "3")
        assert res.returncode == 0
        assert "split: -\n" in res.stdout
        assert "(defaulted)" not in res.stdout
        assert "verdict: MATCH" in res.stdout

    def test_without_q_stops_at_symbolic(self):
        res = run("structure", "--type", "3,-1")
        assert res.returncode == 0
        assert res.stdout == (
            "type: 3,-1\n"
            "l: 4\n"
            "form: -\n"
            "case: i\n"
            "structure: Z_{(q^3-1)(q+1)}\n"
        )

    def test_json_fields_and_order(self):
        res = run("structure", "--type", "1,1,-2", "--q", "3", "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert list(data) == [
            "l", "form", "type", "split", "case", "factors",
            "q", "orders", "invariants", "oracle_invariants", "match",
        ]
        assert data["form"] == "-"
        assert data["split"] is None
        assert data["case"] == "ii"
        assert data["factors"] == [[[2, -1], [1, 1]], [[1, 1]]]
        assert data["orders"] == [20, 2]
        assert data["invariants"] == [2, 20]
        assert data["match"] is True

    def test_json_is_stable_bytes(self):
        args = ("structure", "--type", "1,1", "--format", "json")
        assert run(*args).stdout == run(*args).stdout
        assert run(*args).stdout.endswith("\n")

    def test_degree_and_form_flags_are_refused(self):
        # the type fixes both; there is nothing left to state twice
        for flags in (("--l", "4"), ("--form", "plus"), ("--l", "4", "--form", "plus")):
            res = run("structure", *flags, "--type", "2,2")
            assert res.returncode == 2, flags

    def test_abbreviated_flag_is_refused(self):
        # --form is not taken as short for --format, nor --l for --l-max
        for args in (("structure", "--type", "2,2", "--form", "json"), ("verify", "--l", "3")):
            res = run(*args)
            assert res.returncode == 2, args
            assert res.stdout == ""
            assert f"unrecognized arguments: {args[-2]}" in res.stderr, args

    def test_degree_below_two_is_usage_error(self):
        for args in (("--type", "1", "--q", "3"), ("--type=-1",)):
            res = run("structure", *args)
            assert res.returncode == 2, args
            assert "degree" in res.stderr and "Traceback" not in res.stderr

    def test_q_past_int_text_limit(self):
        # q = 10^1500 + 1 is read, and the order q^3 - 1, 4,501 digits
        # and past Python's default int-to-str limit, is printed (digits
        # written out, since this process keeps the limit)
        q = "1" + "0" * 1499 + "1"
        res = run("structure", "--type", "3", "--q", q, timeout=60)
        assert res.returncode == 0, res.stderr[-300:]
        order = "1" + "0" * 1499 + "3" + "0" * 1499 + "3" + "0" * 1500
        assert len(order) == 4501
        assert f"\norders: {order}\n" in res.stdout
        assert res.stdout.endswith("verdict: MATCH\n")

    def test_refuses_a_check_past_the_degree_limit(self):
        # the lattice check grows as l^3; above the limit structure --q
        # refuses before it builds anything, and without --q it runs
        start = time.perf_counter()
        res = run("structure", "--type", "65", "--q", "3", timeout=30)
        assert time.perf_counter() - start < 1
        assert res.returncode == 2
        assert "type 65 has degree 65, above 64" in res.stderr
        assert res.stdout == ""
        res = run("structure", "--type", "3000")
        assert res.returncode == 0
        assert res.stdout.endswith("structure: Z_{q^1500+1} x Z_{q^1500-1}\n")

    def test_bad_type_literal(self):
        # the usage printed is the subcommand's, not the top level's
        for literal in ("2,x", "0"):
            res = run("structure", "--type", literal)
            assert res.returncode == 2, literal
            assert res.stderr.startswith("usage: spintori structure "), literal

    def test_order_law_failure_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "torus_order", lambda cls, q: 0)
        rc = cli.main(["structure", "--type", "2,2", "--q", "3"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "FAIL order law for 2,2:+ at q=3: want 0, got 64\n" in err
        assert out.endswith("verdict: MISMATCH\n")

    def test_order_law_failure_in_json(self, monkeypatch, capsys):
        # the order law is one more check: a JSON record is still printed
        monkeypatch.setattr(cli, "torus_order", lambda cls, q: 0)
        rc = cli.main(["structure", "--type", "2,2", "--q", "3", "--format", "json"])
        assert rc == 1
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert data["match"] is False
        assert data["invariants"] == data["oracle_invariants"] == [2, 4, 8]
        assert err.splitlines() == ["FAIL order law for 2,2:+ at q=3: want 0, got 64"]

    def test_composite_q_warns(self):
        res = run("structure", "--type", "1,1", "--q", "6")
        assert res.returncode == 0
        assert "not a prime power" in res.stderr


class TestTable:
    @pytest.mark.parametrize("form", ["plus", "minus"])
    def test_matches_golden(self, form):
        res = run("table", "--l", "4", "--form", form)
        assert res.returncode == 0
        golden = (GOLDEN / f"table_l4_{form}.txt").read_text()
        assert res.stdout == golden

    def test_flag_only_on_known_row(self):
        out = run("table", "--l", "4", "--form", "plus").stdout
        flagged = [line for line in out.splitlines() if line.endswith("[*]")]
        assert len(flagged) == 1
        assert flagged[0].startswith("2,2:+/-")
        assert "[*]" not in run("table", "--l", "4", "--form", "minus").stdout
        assert "[*]" not in run("table", "--l", "6", "--form", "plus").stdout

    def test_json_lists_every_class(self):
        res = run("table", "--l", "4", "--form", "plus", "--format", "json")
        data = json.loads(res.stdout)
        assert len(data) == 13
        splits = [e["type"] for e in data if e["split"]]
        assert splits == ["2,2", "2,2", "4", "4"]

    def test_refuses_a_table_past_the_limit(self):
        # l = 32 has 1,046,936 classes of both forms; the count is taken
        # with none built, so the refusal is immediate
        for extra in ((), ("--format", "json")):
            start = time.perf_counter()
            res = run("table", "--l", "32", "--form", "plus", *extra, timeout=30)
            assert time.perf_counter() - start < 1
            assert res.returncode == 2
            assert "l = 32 has 1,046,936 classes of both forms, above the limit of 1,000,000" in res.stderr
            assert res.stdout == ""


class TestVerify:
    def test_small_sweep(self):
        res = run("verify", "--l-max", "3", "--q", "2,3")
        assert res.returncode == 0
        assert res.stdout == (
            "l=2: 24 checks, 0 failures\n"
            "l=3: 52 checks, 0 failures\n"
            "total: 76 checks, 0 failures\n"
        )
        assert res.stderr == ""

    def test_failure_prints_a_working_replay_command(self, monkeypatch, capsys):
        # break the lattice matrix of one class at one q: doubling a row
        # doubles |det|, so the lattice invariants stop matching
        real = tori.torus_matrix

        def broken(tau, q):
            m = real(tau, q)
            if TorusClass.coerce(tau).literal() == "-1,-1,-1" and q == 3:
                m = [[2 * x for x in m[0]]] + m[1:]
            return m

        monkeypatch.setattr(tori, "torus_matrix", broken)
        assert cli.main(["verify", "--l-max", "3", "--q", "2,3"]) == 1
        out, err = capsys.readouterr()
        assert out == (
            "l=2: 24 checks, 0 failures\n"
            "l=3: 52 checks, 1 failures\n"
            "total: 76 checks, 1 failures\n"
        )
        (line,) = err.splitlines()
        assert line.startswith("FAIL l=3 form=- type=-1,-1,-1 q=3: lattice; replay: ")
        replay = shlex.split(line.split("; replay: ")[1])
        assert replay[0] == "spintori"
        assert cli.main(replay[1:]) == 1
        assert "verdict: MISMATCH\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "route,target,breaker,literal",
        [
            ("alternative", "alternative_decomposition",
             lambda alt: replace(alt, factors=alt.factors + (((1, -1),),)),
             "1,-2,-1"),
            ("coupling identity", "reduced_form_identity", lambda ok: False, "1,-1"),
            ("reduced matrix", "reduced_torus_matrix",
             lambda m: [[2 * x for x in m[0]]] + m[1:], "1,-1"),
        ],
        ids=["alternative", "coupling-identity", "reduced-matrix"],
    )
    def test_failure_of_any_route_replays(
        self, monkeypatch, capsys, route, target, breaker, literal
    ):
        # break one route for one class at q = 3: the lattice route
        # still matches, so the replay must re-check every route
        real = getattr(tori, target)

        def broken(tau, q):
            out = real(tau, q)
            return breaker(out) if tau.literal() == literal and q == 3 else out

        monkeypatch.setattr(tori, target, broken)
        assert cli.main(["verify", "--l-max", "4", "--q", "3"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith(" checks, 1 failures\n")
        (line,) = err.splitlines()
        assert f" type={literal} q=3: {route}; replay: " in line
        replay = shlex.split(line.split("; replay: ")[1])
        assert cli.main(replay[1:]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("verdict: MISMATCH\n")
        assert err.startswith(f"FAIL {route} for {literal} at q=3: ")
        # the JSON verdict is the text one: every check, not the lattice alone
        assert cli.main(replay[1:] + ["--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["match"] is False

    def test_rejects_bad_degree(self):
        assert run("verify", "--l-max", "1").returncode == 2

    def test_large_prime_q_is_quick(self):
        # the prime-power note for a 61-bit q needs no factorization
        res = run("verify", "--l-max", "2", "--q", str(2**61 - 1), timeout=30)
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.splitlines()[-1].endswith("0 failures")

    def test_refuses_a_sweep_past_the_limit(self):
        # l <= 40 is 38,363,946 classes; the count stops at the first
        # degree past the limit, so the refusal is immediate
        start = time.perf_counter()
        res = run("verify", "--l-max", "40", "--q", "2,3,4,5,7,9,11,13,16,25", timeout=30)
        assert time.perf_counter() - start < 1
        assert res.returncode == 2
        assert "l = 2..21 alone has 115,514 classes, 1,155,140 (class, q) pairs" in res.stderr
        assert res.stdout == ""

    def test_limit_is_on_class_and_q_pairs(self, monkeypatch, capsys):
        # l <= 20 at ten q is 805,120 pairs and runs; l <= 21 is refused
        monkeypatch.setattr(cli, "sweep_checks", lambda classes, qs: iter(()))
        qs = "2,3,4,5,7,9,11,13,16,25"
        assert cli.main(["verify", "--l-max", "20", "--q", qs]) == 0
        assert capsys.readouterr().out == "total: 0 checks, 0 failures\n"
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--l-max", "21", "--q", qs])
        assert exc.value.code == 2
        assert "l = 2..21 has 115,514 classes" in capsys.readouterr().err
        assert cli.main(["verify", "--l-max", "21", "--q", "2,3,4,5,7,9,11,13"]) == 0

    def test_rejects_bad_q_list(self):
        assert run("verify", "--l-max", "2", "--q", "2,x").returncode == 2
        assert run("verify", "--l-max", "2", "--q", "1").returncode == 2

    def test_rejects_repeated_q(self):
        # a repeated q would run and count its checks twice
        res = run("verify", "--l-max", "3", "--q", "3,5,3")
        assert res.returncode == 2
        assert "q = 3 is given more than once" in res.stderr
        assert res.stdout == ""


class TestSnf:
    def test_file_input(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n2 1\n0 2\n")
        res = run("snf", str(path))
        assert res.returncode == 0
        assert res.stdout == "D:\n2 2\n1 0\n0 4\ninvariant factors: 1, 4\n"

    def test_stdin_input(self):
        res = run("snf", "-", stdin="2 2\n10 0\n0 8\n")
        assert res.returncode == 0
        assert "invariant factors: 2, 40\n" in res.stdout

    def test_witnesses(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 2\n4 2\n2 8\n6 10\n")
        res = run("snf", str(path), "--witnesses")
        assert res.returncode == 0
        assert "P:\n" in res.stdout and "Q:\n" in res.stdout
        blocks = res.stdout.split("P:\n")[1].split("Q:\n")
        p_rows, q_rows = blocks[0], blocks[1].split("invariant")[0]
        assert p_rows.splitlines()[0] == "3 3"
        assert q_rows.splitlines()[0] == "2 2"

    def test_malformed_matrix(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2 3\n")
        res = run("snf", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("usage: spintori snf ")

    def test_missing_file(self):
        assert run("snf", "/nonexistent/m.txt").returncode == 2

    def test_non_utf8_input_is_usage_error(self, tmp_path):
        # exit 1 means a check failed; an undecodable file is a usage error
        data = b"2 2\n1 0\n0 \xff\n"
        path = tmp_path / "latin.txt"
        path.write_bytes(data)
        for args, stdin in (((str(path),), None), (("-",), data)):
            res = subprocess.run(
                [sys.executable, "-m", "spintori", "snf", *args], input=stdin, capture_output=True
            )
            assert res.returncode == 2, args
            assert b"not UTF-8" in res.stderr and b"Traceback" not in res.stderr

    def test_zero_matrix(self):
        res = run("snf", "-", stdin="2 2\n0 0\n0 0\n")
        assert res.returncode == 0
        assert "invariant factors: (none)\n" in res.stdout

    def test_witnesses_past_int_text_limit(self):
        # a 5,000-digit entry is past Python's default int-to-str limit
        # both when the input is parsed and when D is printed
        # (digits written out, since this process keeps the limit)
        zeros = "0" * 4999
        res = run("snf", "-", "--witnesses", stdin=f"2 2\n6 0\n0 1{zeros}\n")
        assert res.returncode == 0, res.stderr
        assert "P:\n" in res.stdout and "Q:\n" in res.stdout
        assert max(len(tok) for tok in res.stdout.split()) > 4300
        assert res.stdout.endswith(f"invariant factors: 2, 3{zeros}\n")

        # the Hermite step keeps the witnesses of this l = 9 lattice
        # matrix near its 42-bit determinant; they once ran to tens of
        # thousands of digits
        m = torus_matrix(TorusClass.parse("2,-2,-2,-2,-1"), 25)
        res = run("snf", "-", "--witnesses", stdin=format_matrix_text(m))
        assert res.returncode == 0, res.stderr
        witnesses = res.stdout.split("P:\n")[1].split("invariant factors:")[0]
        assert max(len(tok) for tok in witnesses.split()) < 100
        assert res.stdout.endswith("invariant factors: 1, 1, 1, 1, 1, 2, 626, 16276, 195312\n")
