#!/usr/bin/env python3
"""Tests for scripts/profile_view.py (folded-stack -> SVG/speedscope).

Each case materialises a folded-stack file into a temp dir and runs the
script as a subprocess, asserting on exit code and on the structure of
the emitted artifacts — the contract EXPERIMENTS.md's flamegraph recipe
and CI actually consume (0 = ok, 2 = bad input).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "profile_view.py")

FOLDED = """\
thread:driver.0;op:complex.Q9;main;RunStream;Query9WithPlan 17
thread:driver.0;op:complex.Q9;opr:join2;main;RunStream;Query9WithPlan;Join2 5
thread:driver.1;op:complex.Q14;main;RunStream;Query14 9
thread:main;op:complex.Q9;opr:sort_limit;main;Sort 3
"""


class ProfileViewTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def run_view(self, *argv):
        return subprocess.run([sys.executable, SCRIPT, *argv],
                              capture_output=True, text=True)

    def test_svg_renders_every_frame(self):
        folded = self.write("prof.folded", FOLDED)
        svg = os.path.join(self.tmp.name, "out.svg")
        result = self.run_view(folded, "--svg", svg, "--title", "t-title")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        with open(svg, encoding="utf-8") as f:
            body = f.read()
        self.assertTrue(body.startswith("<svg"), body[:80])
        self.assertIn("t-title", body)
        # Every distinct frame (context bands and code frames alike) must
        # appear in a hover title with its sample count.
        for frame in ("thread:driver.0", "op:complex.Q9", "opr:join2",
                      "Query9WithPlan", "Query14", "opr:sort_limit"):
            self.assertIn(frame, body)
        # Root row accounts for all 34 samples.
        self.assertIn("all (34 samples, 100.00%)", body)
        # Stacks sharing a full prefix merge: both driver.0 lines carry
        # op:complex.Q9, so the band totals 17+5=22 samples.
        self.assertIn("op:complex.Q9 (22 samples", body)

    def test_speedscope_document_is_valid(self):
        folded = self.write("prof.folded", FOLDED)
        out = os.path.join(self.tmp.name, "out.speedscope.json")
        result = self.run_view(folded, "--speedscope", out)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        self.assertIn("speedscope", doc["$schema"])
        prof = doc["profiles"][0]
        self.assertEqual(prof["type"], "sampled")
        self.assertEqual(len(prof["samples"]), 4)
        self.assertEqual(prof["weights"], [17, 5, 9, 3])
        self.assertEqual(prof["endValue"], 34)
        # Every samples entry must index into shared.frames, root-first.
        frames = doc["shared"]["frames"]
        first = [frames[i]["name"] for i in prof["samples"][0]]
        self.assertEqual(first[0], "thread:driver.0")
        self.assertEqual(first[-1], "Query9WithPlan")

    def test_both_outputs_in_one_run(self):
        folded = self.write("prof.folded", FOLDED)
        svg = os.path.join(self.tmp.name, "o.svg")
        ss = os.path.join(self.tmp.name, "o.json")
        result = self.run_view(folded, "--svg", svg, "--speedscope", ss)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertTrue(os.path.exists(svg))
        self.assertTrue(os.path.exists(ss))

    def test_no_output_flag_is_usage_error(self):
        folded = self.write("prof.folded", FOLDED)
        result = self.run_view(folded)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("nothing to do", result.stderr)

    def test_missing_input_is_bad_input(self):
        result = self.run_view(os.path.join(self.tmp.name, "absent"),
                               "--svg", os.path.join(self.tmp.name, "o.svg"))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)

    def test_malformed_count_is_bad_input(self):
        folded = self.write("bad.folded", "main;f notanumber\n")
        result = self.run_view(folded, "--svg",
                               os.path.join(self.tmp.name, "o.svg"))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("not an integer", result.stderr)

    def test_zero_count_is_bad_input(self):
        folded = self.write("bad.folded", "main;f 0\n")
        result = self.run_view(folded, "--svg",
                               os.path.join(self.tmp.name, "o.svg"))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("must be positive", result.stderr)

    def test_empty_capture_is_bad_input(self):
        folded = self.write("empty.folded", "\n\n")
        result = self.run_view(folded, "--svg",
                               os.path.join(self.tmp.name, "o.svg"))
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("no stacks", result.stderr)

    def test_min_percent_prunes_rare_frames(self):
        folded = self.write("prof.folded",
                            "main;hot 99\nmain;rare_leaf_frame 1\n")
        svg = os.path.join(self.tmp.name, "out.svg")
        result = self.run_view(folded, "--svg", svg, "--min-percent", "5")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        with open(svg, encoding="utf-8") as f:
            body = f.read()
        self.assertIn("hot", body)
        self.assertNotIn("rare_leaf_frame", body)


if __name__ == "__main__":
    unittest.main()
