"""Byte identity of the CLI's output (ROADMAP aim 4).

The CLI prints every probability to 17 significant digits, so each check
compares whole outputs byte for byte: the same command with one BLAS thread
or as many as OpenBLAS starts, pinned to one CPU or free to use every usable
one, and a row in its whole file or in a part of it.

The sizes are part of the checks: T = 10⁴ crosses the blocked
forward–backward threshold; 1500 rows is not a multiple of
``PREDICT_BLOCK``; N ∈ {3, 8, 32} falls on both sides of numpy's
pairwise-sum switch; and at 32 labels over 3000 rows one BLAS product once
summed the trainer's gradient differently.
"""

import json
import os

import numpy as np
import pytest

from dualbayes.cli import main
from dualbayes.core import usable_cpus
from dualbayes.model_io import save_model
from dualbayes.verify import random_discriminative_nb

from helpers import run_python

# with one usable CPU there is nothing to compare: OpenBLAS starts one thread
# by default as well, and a run is one CPU wide already
MANY_CPUS = pytest.mark.skipif(
    usable_cpus() < 2 or not hasattr(os, "sched_setaffinity"),
    reason=f"{usable_cpus()} usable CPU(s), or no os.sched_setaffinity to pin a run to one")

_PINNED = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "os.execv(sys.executable, [sys.executable, '-m', 'dualbayes.cli', *sys.argv[1:]])")


def _printed(*args, one_cpu=False, files=(), **env):
    """What ``python -m dualbayes.cli *args`` prints, followed by the bytes of
    each of ``files`` once it has written them.

    It runs in a fresh interpreter, pinned to one CPU before the interpreter
    starts when ``one_cpu``, with ``env`` added to its environment (a value
    of None removes the variable).
    """
    done = run_python(*(("-c", _PINNED) if one_cpu else ("-m", "dualbayes.cli")), *args, **env)
    assert done.returncode == 0, done.stderr
    return [done.stdout, *(path.read_bytes() for path in files)]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _hmm_json(seed, n):
    """An hmm model of ``n`` labels over 20 symbols, its rows drawn from ``seed``."""
    rng = np.random.default_rng(seed)

    def rows(n, m):
        out = rng.uniform(0.05, 1.0, size=(n, m))
        return (out / out.sum(axis=1, keepdims=True)).tolist()

    return json.dumps({
        "type": "hmm", "labels": [f"h{i}" for i in range(n)],
        "alphabet": [f"o{k}" for k in range(20)],
        "prior": rows(1, n)[0], "transitions": rows(n, n), "emissions": rows(n, 20)})


def _observations(seed):
    """10⁴ symbols of a 20-symbol alphabet, drawn from ``seed``, as ``--obs`` takes them."""
    return ",".join(f"o{k}" for k in np.random.default_rng(seed).integers(0, 20, 10_000))


def _real_rows_csv(rng, rows, t_len):
    """A header and ``rows`` rows of ``t_len`` normal draws."""
    lines = [",".join(f"f{t}" for t in range(t_len))]
    lines += [",".join(map(repr, row)) for row in rng.normal(0.0, 2.0, size=(rows, t_len)).tolist()]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("determinism")


@pytest.fixture(scope="module", params=[4, 32])
def labelled_rows(request, work):
    """3000 labelled rows of 20 real features around one mean per label."""
    n_labels = request.param
    rng = np.random.default_rng(12)
    codes = rng.integers(0, n_labels, 3000)
    rows = rng.normal(size=(n_labels, 20))[codes] + rng.normal(0.0, 1.5, size=(3000, 20))
    lines = ["label," + ",".join(f"f{t}" for t in range(20))]
    lines += [f"l{code}," + ",".join(map(repr, row)) for code, row in zip(codes, rows.tolist())]
    return _write(work / f"real{n_labels}.csv", "\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def blas_observations():
    return _observations(17)


@MANY_CPUS
@pytest.mark.parametrize("batch", ["full", "7"])
def test_discriminative_fit_prints_the_same_bytes_with_one_blas_thread_or_many(
        tmp_path, labelled_rows, batch):
    # the trainer's logits and gradients are BLAS products
    model = tmp_path / "model.json"
    args = ("fit", "--discriminative", "--epochs", "20", "--batch-size", batch, labelled_rows,
            "-o", str(model))
    one = _printed(*args, files=[model], OPENBLAS_NUM_THREADS="1")
    assert one == _printed(*args, files=[model], OPENBLAS_NUM_THREADS=None)


@MANY_CPUS
@pytest.mark.parametrize("n", [2, 8, 16])
def test_hmm_posterior_prints_the_same_bytes_with_one_blas_thread_or_many(
        tmp_path, blas_observations, n):
    # at N <= 16 and T >= 512 the kernel advances its time blocks with BLAS
    # products; N=2 and N=16 give the smallest and largest block stacks
    model = _write(tmp_path / "hmm.json", _hmm_json(16, n))
    args = ("hmm-posterior", model, "--obs", blas_observations, "--algorithm", "both")
    assert _printed(*args, OPENBLAS_NUM_THREADS="1") == _printed(*args, OPENBLAS_NUM_THREADS=None)


@MANY_CPUS
@pytest.mark.parametrize("options", [["--seed", "0"], ["--seed", "5"], ["--cases", "7"]],
                         ids=["seed-0", "seed-5", "cases-7"])
def test_verify_prints_the_same_bytes_on_one_cpu_or_many(options):
    # pinned to one CPU, verify runs all its suites in one forked child
    # instead of one child per CPU
    assert _printed("verify", *options, one_cpu=True) == _printed("verify", *options)


@MANY_CPUS
def test_predict_and_hmm_posterior_print_the_same_bytes_on_one_cpu_or_many(tmp_path):
    # pinned to one CPU, both commands format their tables in one part
    # instead of one part per usable CPU
    model = _write(tmp_path / "hmm32.json", _hmm_json(32, 32))
    args = ("hmm-posterior", model, "--obs", _observations(33), "--algorithm", "both")
    assert _printed(*args, one_cpu=True) == _printed(*args)

    rng = np.random.default_rng(34)
    save_model(random_discriminative_nb(rng, n_labels=5, t_len=6), tmp_path / "disc.json")
    data = _write(tmp_path / "rows.csv", _real_rows_csv(rng, 5000, 6))
    out = tmp_path / "out.csv"
    args = ("predict", str(tmp_path / "disc.json"), data, "-o", str(out))
    assert _printed(*args, one_cpu=True, files=[out]) == _printed(*args, files=[out])


@pytest.mark.parametrize("n_labels", [3, 8, 32])
def test_a_row_prints_the_same_whatever_file_it_sits_in(tmp_path, capsys, n_labels):
    # 1500 is not a multiple of PREDICT_BLOCK, so a row of the split files
    # sits in a different block, at a different place, than in the whole file
    rng = np.random.default_rng(35)
    save_model(random_discriminative_nb(rng, n_labels=n_labels, t_len=20),
               tmp_path / "disc20.json")
    header, *rows = _real_rows_csv(rng, 5000, 20).splitlines(keepends=True)
    files = {name: _write(tmp_path / f"{name}.csv", header + "".join(part))
             for name, part in (("whole", rows), ("first", rows[:1500]), ("rest", rows[1500:]))}
    assert main(["convert", str(tmp_path / "disc20.json"), "-o", str(tmp_path / "lr20.json")]) == 0
    for model in ("disc20.json", "lr20.json"):
        tables = {}
        for name, data in files.items():
            out = tmp_path / f"{name}.out"
            assert main(["predict", str(tmp_path / model), data, "-o", str(out)]) == 0
            tables[name] = out.read_bytes().splitlines(keepends=True)
        assert tables["whole"] == tables["first"] + tables["rest"][1:]
    capsys.readouterr()
