"""Mutation check of the bounds that choose int64 or Python ints, of the
layouts that fix a float sum's rounding, of the one stream that chunked
bootstrap draws continue, of the config checks that numbers and builder
params are finite, and of the report writer's check that a file already
holds the bytes to be written.

An int64 array that overflows wraps without a warning, so a bound that is
too small gives a wrong exact result silently.  Most mutants below make
one such bound smaller, or narrow the (h, e) span of the deviation
table's dense codes, which would merge the codes of distinct pairs.  A
float sum along an axis rounds by the array's memory order, so a mutant
may instead drop an order that keeps a result equal to its per-row
oracle, or start the bootstrap's stream again at each drawing call.
A config mutant lets a config number be nan or inf, which would pass or
fail every audit silently, or a builder param, which would escape as a
traceback.  The writer mutants leave a report file as it is when only its
length matches, or its bytes but not its mode, owner or link count.  The script applies
one mutant at a time to a copy of the tree in a temporary directory
(never to the checkout), runs the mutant's test files on the copy with -x
(the int64, walk and loss test files unless the mutant names its own),
and fails when any mutant survives (its tests
pass) or when a mutant's source string does not occur exactly once in
its file.  The unmutated copy runs every test file first and must pass,
so that a test failing for another reason kills nothing.  Standard
library only; run it from anywhere as

    python .github/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = ["tests/test_int64_edge.py", "tests/test_walk.py", "tests/test_losses.py"]
COPIED = ["src", "tests", "pyproject.toml", "README.md"]  # test_cli reads the README

#: (name, file, source that must occur exactly once, its replacement[,
#: the test files that must kill it, else TESTS])
MUTANTS = [
    (
        "factorial-table",
        "src/stabaudit/learners.py",
        "as_ints([math.factorial(c) for c in range(m + 1)], math.factorial(m))",
        "as_ints([math.factorial(c) for c in range(m + 1)], math.factorial(m - 1))",
    ),
    (
        "sums-table",
        "src/stabaudit/losses.py",
        "self.sums_table = table.astype(int_dtype(self._e_top), copy=False)",
        "self.sums_table = table.astype(int_dtype(_top(table)), copy=False)",
    ),
    (
        "e-bound-in-risks",
        "src/stabaudit/losses.py",
        "max(self._e_top * den + self._ms * top, self._ms, den)",
        "max(den + self._ms * top, self._ms, den)",
    ),
    (
        "int-quotients-2^53",
        "src/stabaudit/numeric.py",
        "max(den, den if bound is None else bound) < 2**53",
        "max(den, den if bound is None else bound) < 2**54",
    ),
    (
        "int-quotients-bound",
        "src/stabaudit/numeric.py",
        "max(den, den if bound is None else bound) < 2**53",
        "den < 2**53",
    ),
    (
        "deviations-quotient-bound",
        "src/stabaudit/losses.py",
        "int_quotients(e, ms, self._e_top)",
        "int_quotients(e, ms)",
    ),
    (
        "loss-table-quotient-bound",
        "src/stabaudit/losses.py",
        "int_quotients(nums, scale, _top(nums))",
        "int_quotients(nums, scale)",
    ),
    (
        "sums-total",
        "src/stabaudit/learners.py",
        "dtype = int_dtype(top * self.bound) if self.exact else np.float64",
        "dtype = int_dtype(top) if self.exact else np.float64",
    ),
    (
        "joint-of-integers",
        "src/stabaudit/dist.py",
        "int_dtype(int(nums.max()) * nums.size)",
        "int_dtype(int(nums.max()))",
    ),
    (
        "walk-weight-bound",
        "src/stabaudit/learners.py",
        "dtype = int_dtype(den * math.factorial(m) if symmetric else den)",
        "dtype = int_dtype(den)",
    ),
    (
        "gen-risk-bound",
        "src/stabaudit/losses.py",
        "dtype = int_dtype(2 * cells.scale * max(_top(table), 1))",
        "dtype = int_dtype(cells.scale * max(_top(table), 1))",
    ),
    (
        "entry-mass-bound",
        "src/stabaudit/learners.py",
        "dtype = int_dtype(block.den * out.den)\n",
        "dtype = int_dtype(block.den)\n",
    ),
    (
        "dense-span-negative-half",
        "src/stabaudit/losses.py",
        "lo, span = -self._e_top, 2 * self._e_top + 1",
        "lo, span = 0, self._e_top + 1",
    ),
    (
        "rerun-side-ks-den",
        "src/stabaudit/learners.py",
        "mass.astype(int_dtype(block.den * out.den * m * ks.den))",
        "mass.astype(int_dtype(block.den * out.den * m))",
    ),
    (
        # the F-ordered product adds each row in sequence, not pairwise
        "bootstrap-product-order",
        "src/stabaudit/mc.py",
        'np.multiply(rz[:, zi], ch[:, hi], order="C")',
        "np.multiply(rz[:, zi], ch[:, hi])",
        ["tests/test_mc.py"],
    ),
    (
        # each drawing call starts the bootstrap's stream again
        "bootstrap-draw-restart",
        "src/stabaudit/mc.py",
        "self._ready.put(rng.multinomial(n, pvals, size))",
        "self._ready.put(_boot_rng(self.seed).multinomial(n, pvals, size))",
        ["tests/test_mc.py"],
    ),
    (
        # a config number may be nan or inf
        "config-nonfinite",
        "src/stabaudit/harness.py",
        "isinstance(value, kinds) and -math.inf < value < math.inf",
        "isinstance(value, kinds)",
        ["tests/test_cli.py"],
    ),
    (
        # a learner or loss param may be nan or inf
        "builder-param-nonfinite",
        "src/stabaudit/harness.py",
        'dict.fromkeys(builders[spec["name"]][1], _finite_param)',
        'dict.fromkeys(builders[spec["name"]][1], _any)',
        ["tests/test_cli.py"],
    ),
    (
        # a report file of the new length is left as it is whatever its bytes
        "write-skip-size-only",
        "src/stabaudit/harness.py",
        "return os.read(fd, len(data) + 1) == data",
        "return True",
        ["tests/test_reports.py"],
    ),
    (
        # a report file of equal bytes is left as it is whatever its mode
        "write-skip-any-mode",
        "src/stabaudit/harness.py",
        "stat.S_IMODE(st.st_mode) != 0o644 or ",
        "",
        ["tests/test_reports.py"],
    ),
    (
        # a report file of equal bytes is left as it is whoever owns it and
        # however many links it has
        "write-skip-any-owner",
        "src/stabaudit/harness.py",
        "if st.st_uid != os.geteuid() or st.st_nlink != 1:",
        "if False:",
        ["tests/test_reports.py"],
    ),
]


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def _pytest(tree: str, tests: list[str]) -> tuple[int, str, float]:
    """(exit code, output, seconds) of the test files on tree."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    result = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return result.returncode, result.stdout, time.perf_counter() - start


def _apply(tree: str, path: str, old: str, new: str) -> str | None:
    """Replace old by new in tree/path; an error message when old does not
    occur exactly once."""
    full = os.path.join(tree, path)
    with open(full) as f:
        text = f.read()
    count = text.count(old)
    if count != 1:
        return f"{path}: the source string occurs {count} times, not once: {old!r}"
    with open(full, "w") as f:
        f.write(text.replace(old, new))
    return None


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = os.path.join(tmp, "unmutated")
        _copy_tree(tree)
        every = sorted({test for _, _, _, _, *own in MUTANTS for test in (own[0] if own else TESTS)})
        code, out, took = _pytest(tree, every)
        if code != 0:
            print(out[-3000:])
            print(f"the unmutated tests fail (pytest exit {code}), so no mutant can be judged")
            return 1
        print(f"unmutated: passed in {took:.1f} s", flush=True)
        shutil.rmtree(tree)
        for name, path, old, new, *own in MUTANTS:
            tree = os.path.join(tmp, name)
            _copy_tree(tree)
            error = _apply(tree, path, old, new)
            if error:
                print(f"{name}: ERROR {error}", flush=True)
                failures.append(name)
                continue
            code, out, took = _pytest(tree, own[0] if own else TESTS)
            if code == 1:  # a test failed: the mutant is killed
                failed = [line for line in out.splitlines() if line.startswith("FAILED")]
                print(f"{name}: killed in {took:.1f} s", *failed[:1], sep="\n  ", flush=True)
            else:
                print(f"{name}: SURVIVED (pytest exit {code}) in {took:.1f} s", flush=True)
                print(out[-3000:], flush=True)
                failures.append(name)
            shutil.rmtree(tree)
    if failures:
        print(f"{len(failures)} mutant(s) not killed: {', '.join(failures)}")
        return 1
    print("every mutant killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
