"""Byte identity of the CLI's output (ROADMAP aim 4).

The CLI prints every probability to 17 significant digits, so each check
compares whole outputs byte for byte: the same command with one BLAS thread
or as many as OpenBLAS starts, pinned to one CPU or free to use every usable
one, a row in its whole file or in a part of it, and a table against the
text of the per-row ``%`` templates that printed it before ``format17``.

The sizes are part of the checks: T = 10⁴ crosses the blocked
forward–backward threshold; 1500 rows is not a multiple of
``PREDICT_BLOCK``; N ∈ {3, 8, 32} falls on both sides of numpy's
pairwise-sum switch; and at 32 labels over 3000 rows one BLAS product once
summed the trainer's gradient differently.
"""

import json
import os
import re

import numpy as np
import pytest

from dualbayes.cli import _PART_BLOCKS, PREDICT_BLOCK, TABLE_BLOCK, main
from dualbayes.core import usable_cpus
from dualbayes.hmm import derive_hmm_posteriors, entropic_forward_backward, forward_backward
from dualbayes.model_io import load_model, save_model
from dualbayes.naive_bayes import (
    DiscriminativeNBModel,
    disc_nb_log_posterior_batch,
    nb_encode,
    nb_generative_log_posterior_batch,
)
from dualbayes.verify import random_discriminative_nb

from helpers import run_python

# with one usable CPU there is nothing to compare: OpenBLAS starts one thread
# by default as well, and a run is one CPU wide already
MANY_CPUS = pytest.mark.skipif(
    usable_cpus() < 2 or not hasattr(os, "sched_setaffinity"),
    reason=f"{usable_cpus()} usable CPU(s), or no os.sched_setaffinity to pin a run to one")

# a run pinned to one CPU formats its table in one part, a free one in one
# part per usable CPU: each table below holds 2 * _PART_BLOCKS blocks or more
ONE_CPU_OR_FREE = pytest.mark.parametrize("one_cpu", [
    pytest.param(True, id="one-cpu", marks=pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity to pin a run")),
    pytest.param(False, id="free"),
])

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
def test_discriminative_fit_prints_the_same_bytes_with_one_blas_thread_or_many(
        tmp_path, labelled_rows):
    # the trainer's logits and gradients are BLAS products
    model = tmp_path / "model.json"
    args = ("fit", "--discriminative", "--epochs", "20", labelled_rows, "-o", str(model))
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
    # instead of one part per usable CPU, and at N=32, T=10⁴ the HMM kernel
    # runs its backward pass in process instead of in a forked child
    model = _write(tmp_path / "hmm32.json", _hmm_json(32, 32))
    args = ("hmm-posterior", model, "--obs", _observations(33), "--algorithm", "both")
    assert _printed(*args, one_cpu=True) == _printed(*args)

    rng = np.random.default_rng(34)
    save_model(random_discriminative_nb(rng, n_labels=5, t_len=6), tmp_path / "disc.json")
    data = _write(tmp_path / "rows.csv",
                  _real_rows_csv(rng, 2 * _PART_BLOCKS * (TABLE_BLOCK // 5) + 7, 6))
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


# The tables as the per-row `%` templates printed them before `format17`:
# rows that straddle a value block and a part edge, with entries of exactly
# 0 and 1 and entries in the exponent form.

def _predict_text(names, probs):
    """``predict``'s table of ``probs`` through its former row template."""
    best = probs.argmax(axis=1)
    ties = (probs == probs[np.arange(len(probs)), best][:, None]).sum(axis=1) > 1
    template = ",".join(["%.17g"] * len(names)) + ",%s,%d\r\n"
    header = ",".join(f"p_{name}" for name in names) + ",argmax,tie\r\n"
    return header + "".join(template % (*row, names[k], tie) for row, k, tie
                            in zip(probs.tolist(), best.tolist(), ties.tolist()))


def _blockwise(kernel, rows):
    """``exp(kernel)`` of ``rows``, ``PREDICT_BLOCK`` rows at a time as ``predict`` runs it."""
    return np.concatenate([np.exp(kernel(rows[start:start + PREDICT_BLOCK]))
                           for start in range(0, len(rows), PREDICT_BLOCK)])


@ONE_CPU_OR_FREE
def test_predict_with_steep_slopes_prints_its_former_bytes(tmp_path, one_cpu):
    # slopes of up to 8 per position on inputs of spread 2: entries from
    # exactly 1 down past 1e-10, many in the exponent form
    rng = np.random.default_rng(36)
    n_labels, rows = 5, 2 * _PART_BLOCKS * (TABLE_BLOCK // 5) + 7
    base = random_discriminative_nb(rng, n_labels=n_labels, t_len=6)
    model = DiscriminativeNBModel(base.labels, base.prior, rng.uniform(-8.0, 8.0, (5, 6)),
                                  base.intercepts)
    save_model(model, tmp_path / "steep.json")
    reals = rng.normal(0.0, 2.0, size=(rows, 6))
    data = _write(tmp_path / "rows.csv", "f0,f1,f2,f3,f4,f5\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in reals.tolist()))
    expected = _predict_text(model.labels.names,
                             _blockwise(lambda block: disc_nb_log_posterior_batch(model, block),
                                        reals))
    assert "e-0" in expected and "e-1" in expected and re.search("^1,", expected, re.M)
    out = tmp_path / "out.csv"
    args = ("predict", str(tmp_path / "steep.json"), data)
    # stdout is read as text, which turns each \r\n into \n
    assert _printed(*args, one_cpu=one_cpu) == [expected.replace("\r\n", "\n")]
    assert _printed(*args, "-o", str(out), one_cpu=one_cpu, files=[out]) == ["", expected.encode()]


@ONE_CPU_OR_FREE
def test_predict_with_unsmoothed_counts_prints_its_former_bytes(tmp_path, one_cpu):
    # fitted with alpha = 0: the first symbol names its label, so every other
    # label has posterior exactly 0 on a row that holds it
    rng = np.random.default_rng(37)
    n_labels, rows = 4, 2 * _PART_BLOCKS * (TABLE_BLOCK // 4) + 9
    codes = rng.integers(0, n_labels, 600)
    lines = ["label,f0,f1,f2"]
    lines += [f"l{c},s{c},u{rng.integers(3)},v{rng.integers(4)}" for c in codes]
    lines += [f"l{c},t,u{rng.integers(3)},v{rng.integers(4)}" for c in codes]
    train = _write(tmp_path / "train.csv", "\n".join(lines) + "\n")
    assert main(["fit", "--generative", train, "-o", str(tmp_path / "nb.json")]) == 0
    model = load_model(tmp_path / "nb.json")
    observations = [[rng.choice(["t", "s0", "s1", "s2", "s3"]), f"u{rng.integers(3)}",
                     f"v{rng.integers(4)}"] for _ in range(rows)]
    data = _write(tmp_path / "rows.csv", "f0,f1,f2\n" + "".join(
        ",".join(row) + "\n" for row in observations))
    expected = _predict_text(model.labels.names, _blockwise(
        lambda block: nb_generative_log_posterior_batch(model, block),
        nb_encode(model, observations)))
    assert re.search("(^|,)0,", expected, re.M) and re.search("(^|,)1,", expected, re.M)
    out = tmp_path / "out.csv"
    assert _printed("predict", str(tmp_path / "nb.json"), data, "-o", str(out), one_cpu=one_cpu,
                    files=[out]) == ["", expected.encode()]


@ONE_CPU_OR_FREE
@pytest.mark.parametrize("n", [2, 8, 32])
def test_hmm_posterior_with_a_certain_step_prints_its_former_bytes(tmp_path, n, one_cpu):
    # state 0 alone emits o0 and always moves to state 1, so the steps at and
    # after an o0 have gamma rows of exactly 0 and 1
    rng = np.random.default_rng(38 + n)
    transitions = rng.uniform(0.05, 1.0, size=(n, n))
    transitions[0] = np.eye(n)[1]
    emissions = rng.uniform(0.05, 1.0, size=(n, 20))
    emissions[1:, 0] = 0.0
    model = {"type": "hmm", "labels": [f"h{i}" for i in range(n)],
             "alphabet": [f"o{k}" for k in range(20)], "prior": (np.ones(n) / n).tolist(),
             "transitions": (transitions / transitions.sum(axis=1, keepdims=True)).tolist(),
             "emissions": (emissions / emissions.sum(axis=1, keepdims=True)).tolist()}
    path = _write(tmp_path / "hmm.json", json.dumps(model))
    symbols = rng.integers(0, 20, 2 * _PART_BLOCKS * (TABLE_BLOCK // n) + 5)
    symbols[1:][symbols[:-1] == 0] = 1 + symbols[1:][symbols[:-1] == 0] % 19  # no o0 after o0
    obs = [f"o{k}" for k in symbols]
    derived = derive_hmm_posteriors(load_model(path))
    tables = {"fb": forward_backward(derived, obs).gamma,
              "efb": entropic_forward_backward(derived, obs).gamma}
    expected = "note: derived posterior columns from prior and emissions\n"
    for name, gamma in tables.items():
        template = f"{name} t=%d " + " ".join(["%.17g"] * n) + "\n"
        expected += "".join(template % (t, *row) for t, row in enumerate(gamma.tolist()))
    expected += f"max_discrepancy={np.abs(tables['fb'] - tables['efb']).max():.3e}\n"
    assert " 1 0" in expected or " 0 1" in expected
    args = ("hmm-posterior", path, "--obs", ",".join(obs), "--algorithm", "both")
    assert _printed(*args, one_cpu=one_cpu) == [expected]
