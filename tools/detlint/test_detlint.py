#!/usr/bin/env python3
"""Fixture suite for detlint (registered as the `test_detlint` ctest).

Each check D1..D4 has a fixture under fixtures/ with known-bad constructs
on known lines plus a benign construct that must NOT fire.  The tests
assert the exact (check, line) set, so they fail both when a check stops
firing (regression in the checker) and when it fires on the benign lines
(false positive).  Disabling a check via --disable must silence exactly
that check's findings — which is also the proof that every fixture
finding is attributable to its check.

Runs detlint as a subprocess: the CLI surface (exit codes, --json) is
part of the contract CI relies on.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
DETLINT = HERE / "detlint.py"
FIXTURES = "tools/detlint/fixtures"
REPO = HERE.parent.parent


def run_detlint(*args: str):
    """Returns (exit_code, parsed_json_summary)."""
    proc = subprocess.run(
        [sys.executable, str(DETLINT), "--config", "none", "--json", "-",
         "-q", *args],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    # The JSON summary is the trailing {...} block after the human report.
    text = proc.stdout
    start = text.index("{")
    return proc.returncode, json.loads(text[start:])


def finding_set(summary) -> set[tuple[str, int]]:
    return {(f["check"], f["line"]) for f in summary["findings"]}


class CheckFixtures(unittest.TestCase):
    """One test per check: exact findings, and --disable silences them."""

    def assert_fixture(self, fixture: str, check: str,
                       expected: set[tuple[str, int]]):
        root = f"{FIXTURES}/{fixture}"
        code, summary = run_detlint("--root", root)
        self.assertEqual(finding_set(summary), expected)
        self.assertEqual(code, 1)
        # Disabling the check must remove exactly its findings.
        code, summary = run_detlint("--root", root, "--disable", check)
        remaining = {c for c, _ in finding_set(summary)}
        self.assertNotIn(check, remaining)

    def test_d1_unordered_iter(self):
        # Line 15: range-for over an unordered_map member; line 22: an
        # explicit begin() iterator walk.  The find()!=end() membership
        # idiom in the same fixture must not fire.
        self.assert_fixture(
            "d1_unordered_iter.cpp", "unordered-iter",
            {("unordered-iter", 15), ("unordered-iter", 22)})

    def test_d1_qualified_names_in_for_headers(self):
        # Line 16's classic for loop calls rng.index(...) after a
        # `std::size_t`, while declares_index.cpp declares an unordered
        # `index`: the `::` is no range-for colon, so no finding.  Line 24's
        # range-for over an unordered `m` still fires.
        self.assert_fixture(
            "d1_for_header", "unordered-iter", {("unordered-iter", 24)})

    def test_d1_reference_and_pointer_declarations(self):
        # Unordered containers declared as a const& parameter (line 12),
        # a pointer iterated through `*table` (line 19), with a trailing
        # `const&` (line 27) and as an rvalue reference (line 28): each
        # range-for fires.  The membership lookup through a reference
        # must not.
        self.assert_fixture(
            "d1_ref_ptr_decls.cpp", "unordered-iter",
            {("unordered-iter", n) for n in (12, 19, 27, 28)})

    def test_d2_pointer_order(self):
        # Pointer-keyed set/map/unordered_set, std::less over a pointer,
        # a comparator lambda ordering two pointer params, and a
        # reinterpret_cast<uintptr_t>.  The value-based comparator must
        # not fire.
        self.assert_fixture(
            "d2_pointer_order.cpp", "pointer-order",
            {("pointer-order", n) for n in (16, 17, 18, 20, 24, 28)})

    def test_d3_nondet_source(self):
        # random_device, srand, rand, steady_clock::now, time(nullptr).
        # time_point arithmetic without ::now must not fire.
        self.assert_fixture(
            "d3_nondet_source.cpp", "nondet-source",
            {("nondet-source", n) for n in (9, 14, 15, 19, 24)})

    def test_d4_arena_invariant(self):
        # ArenaVec<std::string> (owning element), ArenaVec<OwningRecord>
        # (owning member one level down), and three vars with no bind()
        # call in the scanned tree.  The bound trivially-copyable
        # PlainRecord vec must not fire.
        self.assert_fixture(
            "d4_arena_invariant.cpp", "arena-invariant",
            {("arena-invariant", n) for n in (21, 22, 23)})


class Suppressions(unittest.TestCase):
    def test_allows_are_honored_and_reported(self):
        code, summary = run_detlint(
            "--root", f"{FIXTURES}/suppressed.cpp")
        self.assertEqual(code, 0)
        self.assertEqual(summary["findings"], [])
        # Both real findings are suppressed — and reported, never silent.
        self.assertEqual(
            sorted(s["check"] for s in summary["suppressed"]),
            ["nondet-source", "unordered-iter"])
        for s in summary["suppressed"]:
            self.assertTrue(s["suppressed_by"].strip())
        # The stale ALLOW with nothing to suppress surfaces as a warning.
        self.assertEqual(len(summary["unused_suppressions"]), 1)

    def test_malformed_allows_are_findings(self):
        code, summary = run_detlint(
            "--root", f"{FIXTURES}/bad_suppression.cpp")
        self.assertEqual(code, 1)
        checks = sorted(c for c, _ in finding_set(summary))
        # Unknown check name + missing reason are `suppression` findings;
        # the rand() they failed to cover still fires.
        self.assertEqual(checks,
                         ["nondet-source", "suppression", "suppression"])


class TreePolicy(unittest.TestCase):
    def test_repo_scans_clean_with_policy(self):
        """The checked-in tree must be finding-free under detlint.json."""
        proc = subprocess.run(
            [sys.executable, str(DETLINT), "--base", str(REPO), "-q"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_clang_engine_is_gated_not_broken(self):
        """--engine clang must fail with a clear message (no bindings in
        the image), not a traceback."""
        proc = subprocess.run(
            [sys.executable, str(DETLINT), "--engine", "clang",
             "--config", "none", "--root", FIXTURES],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=60)
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            self.assertEqual(proc.returncode, 2)
            self.assertIn("clang Python bindings", proc.stdout)


if __name__ == "__main__":
    unittest.main()
