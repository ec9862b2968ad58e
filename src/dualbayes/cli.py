"""Command-line interface: fit, predict, convert, verify, hmm-posterior.

All commands are thin wrappers over the library; any probability printed
is the in-process value formatted with 17 significant digits, which
round-trips ``float`` exactly.  The ``predict`` and ``hmm-posterior``
tables are printed by :mod:`.format17`, which builds a block's text with
numpy integer arithmetic, byte for byte what ``'%.17g' % value`` prints.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 numerical
failure, 141 (128 + SIGPIPE, as a shell reports a process killed by it) a
reader that closed the output pipe before the end, with no ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys
import warnings
from array import array
from functools import partial
from itertools import islice

import numpy as np

from .core import (
    DimensionMismatch,
    DivergedLoss,
    DualBayesError,
    EmptyDataset,
    EQUALITY_TOL,
    LabelSpace,
    check_simplex_rows,
    forked_parts,
    usable_cpus,
)
from .hmm import HmmModel, derive_hmm_posteriors, entropic_forward_backward, forward_backward
from .logreg import LogisticRegressionModel, lr_log_posterior_batch, lr_to_nb, nb_to_lr
from .model_io import load_model, save_model
from .naive_bayes import (
    DiscriminativeNBModel,
    NaiveBayesModel,
    _infer_spaces,
    _model_from_statistics,
    _smoothing_alpha,
    disc_nb_log_posterior_batch,
    nb_discriminative_log_posterior_batch,
    nb_encode,
    nb_generative_log_posterior_batch,
    nb_sufficient_statistics,
    nb_to_discriminative,
)
from .train import TrainConfig, _gradient_descent, _prepare
from .verify import run_all_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141

# Fixed stream for the conversion probe set; independent of user seeds so
# `convert` output is reproducible by itself.
_PROBE_SEED = 181101
_PROBE_COUNT = 100

# Rows per batch-kernel call in `predict`; bounds the (rows, T, N)
# temporaries of the disc_nb kernel whatever the file size.
PREDICT_BLOCK = 1024

# Values per formatting call and output write of a `predict` or
# `hmm-posterior` table, in whole rows: bounds the formatter's temporaries
# (a few dozen arrays of this many words) and is large enough that its
# per-call cost is small at N=2.  A table of at least two blocks is
# formatted in up to one part per usable CPU.
TABLE_BLOCK = 2048

# The batch kernel of each real-valued model type, for `predict` and `convert`.
_REAL_VALUED_BATCH = {DiscriminativeNBModel: disc_nb_log_posterior_batch,
                      LogisticRegressionModel: lr_log_posterior_batch}


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it between two other fields."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", text, ""])
    return buffer.getvalue()[1:-3]


def _write_parts(lines, count: int, block: int, out) -> None:
    """Write the text of rows ``[0, count)`` to ``out``, ``block`` rows at a time.

    ``lines(start, stop)`` returns the text of rows ``[start, stop)``.  The
    rows are cut into contiguous parts of whole blocks, one per usable CPU
    and at most one per whole block.  Forked children format each part
    after the first into their own files (:func:`.core.forked_parts`) while
    this process writes the first part; the files are then copied to ``out``
    in order.  A part whose file could not be made, or whose child failed,
    is formatted here instead, so ``out`` always gets a serial run's bytes.
    """
    blocks = -(-count // block)
    parts = max(1, min(usable_cpus(), count // block))
    edges = [min(count, block * (blocks * k // parts)) for k in range(parts + 1)]
    first, *rest = [range(start, stop, block) for start, stop in zip(edges, edges[1:])]

    def write(part, to):
        for start in part:
            to.write(lines(start, min(start + block, part.stop)))

    with forked_parts(write, rest) as files:
        write(first, out)
        for part, spool in zip(rest, files):
            if spool is None:
                write(part, out)
            else:
                shutil.copyfileobj(spool, out)


def _table_rows(width: int) -> int:
    """Rows per block of a table of ``width`` values per row."""
    return max(1, TABLE_BLOCK // width)


def _write_gamma(name: str, gamma: np.ndarray) -> None:
    """Print ``gamma`` as ``<name> t=<t> p_0 ... p_N-1`` lines."""
    from . import format17  # here, so that a command with no table never loads it

    end = format17.pieces(["\n"])

    def lines(start, stop):
        head = format17.counters(f"{name} t=", start, stop, " ")
        return format17.rows(gamma[start:stop], " ", head, end)

    _write_parts(lines, gamma.shape[0], _table_rows(gamma.shape[1]), sys.stdout)


def _records(path):
    """Yield ``(line, record)`` for the nonempty ``csv`` records of ``path``, where
    ``line`` is the physical line the record ends on (blank lines count)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        yield from ((reader.line_num, row) for row in reader if row)


def _read_rows(records, width: int, real_mode: bool, labelled: bool):
    """``(labels, rows)`` of the records after a header, each of ``width`` fields.

    The record loop: the only reader of symbol files, and of the real-valued
    files that :func:`_parse_plain` refuses, and the only code that names a
    bad line.  The first field is the label when ``labelled``.  Real-valued
    fields go straight into one float64 buffer, returned as an
    ``(S, width - labelled)`` array, so no row of field strings outlives its
    line.
    """
    what = "feature fields" if labelled else "fields"
    labels, values = [], array("d") if real_mode else []
    for lineno, row in records:
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(row)}")
        if labelled:
            labels.append(row.pop(0))
        if real_mode:
            try:
                values.extend(map(float, row))
            except ValueError:
                raise ValueError(f"line {lineno}: {what} must be numbers") from None
        else:
            values.append(row)
    if real_mode:
        values = np.frombuffer(values).reshape(-1, width - labelled)
    return labels, values


def _plain_lines(handle):
    """The lines of ``handle``, raising ``ValueError`` at one that ``csv`` might
    split otherwise or raise on: one with a quote, a NUL, or more characters
    than a field may hold."""
    limit = csv.field_size_limit()
    for line in handle:
        if '"' in line or "\0" in line or len(line) > limit:
            raise ValueError("not a plain line")
        yield line


def _parse_plain(path, skip: int, width: int, labelled: bool):
    """:func:`_read_rows`' result for a real-valued file, parsed in C, or None.

    The lines after the first ``skip`` (the header's, and any blank ones
    before it) go through one ``np.loadtxt`` pass, split where ``csv``
    splits them.  A label is its field's text.  Labelled rows are the
    ``[:, 1:]`` view of the parsed table, so the features are not copied.
    None means the record loop must read the file: a line
    :func:`_plain_lines` refuses, a field numpy does not read as a number
    (``1_0`` and non-ASCII digits among them, though ``float()`` reads
    both), rows not ``width`` fields wide, or no rows at all.
    """
    codes = {}
    converters = {0: lambda label: codes.setdefault(label, len(codes))} if labelled else None
    with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: the record loop says so
        try:
            # encoding=None: numpy 1.x would otherwise pass the converter bytes
            table = np.loadtxt(_plain_lines(islice(handle, skip, None)), delimiter=",",
                               comments=None, converters=converters, ndmin=2, encoding=None)
        except ValueError:
            return None
    if table.shape[0] == 0 or table.shape[1] != width:
        return None
    if not labelled:
        return [], table
    names = list(codes)
    return [names[code] for code in table[:, 0].astype(np.intp).tolist()], table[:, 1:]


def _read_body(path, records, skip: int, width: int, real_mode: bool, labelled: bool):
    """``(labels, rows)`` after the header that ends on physical line ``skip``:
    the fast pass for a real-valued file, else the record loop."""
    parsed = _parse_plain(path, skip, width, labelled) if real_mode else None
    return _read_rows(records, width, real_mode, labelled) if parsed is None else parsed


def _read_dataset(path, real_mode: bool):
    """Parse a labelled CSV: header, then one label plus T feature fields per row.

    Returns ``(row_labels, features)``: the label of each row, and its
    features as a list of field lists, or as one ``(S, T)`` float64 array
    when ``real_mode``.  A plain real-valued file is parsed in C, and the
    array is then a view of the parsed ``(S, T + 1)`` table; any other file
    is read record by record (:func:`_read_body`).
    """
    records = _records(path)
    lineno, header = next(records, (0, None))
    if header is None:
        raise EmptyDataset("empty dataset")
    if len(header) < 2:
        raise ValueError(
            f"line {lineno}: header needs a label column and at least one feature column"
        )
    labels, features = _read_body(path, records, lineno, len(header), real_mode, labelled=True)
    if not labels:
        raise EmptyDataset("empty dataset")
    return labels, features


def _read_observations(path, real_mode: bool, expected: int):
    """Parse an unlabelled CSV of observations, one per row after the header.

    Real-valued files come back as one ``(S, expected)`` float64 array,
    parsed in C when the file is plain and record by record otherwise
    (:func:`_read_body`).
    """
    records = _records(path)
    lineno, header = next(records, (0, None))
    if header is None:
        raise ValueError("empty observation file")
    if len(header) != expected:
        raise DimensionMismatch(
            f"line {lineno}: header has {len(header)} columns, model expects {expected}"
        )
    _, observations = _read_body(path, records, lineno, expected, real_mode, labelled=False)
    if not len(observations):
        raise ValueError("observation file has no rows")
    return observations


# Each mode's `fit` options and their defaults.  The parser leaves them None,
# so that an option of the other mode can be refused rather than ignored.
_FIT_OPTIONS = {
    "generative": {"alpha": 0.0},
    "discriminative": {"lr": 0.1, "epochs": 100},
}


def _fit_options(args) -> dict:
    """The options of ``args``' mode, with their defaults where not given;
    an option of the other mode raises ``ValueError``."""
    mode, other = ("generative", "discriminative") if args.generative else (
        "discriminative", "generative")
    for name in _FIT_OPTIONS[other]:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies only to fit --{other}")
    return {name: default if getattr(args, name) is None else getattr(args, name)
            for name, default in _FIT_OPTIONS[mode].items()}


def _cmd_fit(args) -> int:
    options = _fit_options(args)  # before the dataset is read, however large it is
    if args.generative:
        alpha = _smoothing_alpha(options["alpha"])
        data = list(zip(*_read_dataset(args.dataset, real_mode=False)))
        labels, alphabets = _infer_spaces(data)
        stats = nb_sufficient_statistics(data, labels, alphabets)
        model = _model_from_statistics(stats, labels, alphabets, alpha)
        save_model(model, args.output)
        print(f"samples={stats.sample_count}")
        for name, count in zip(model.labels.names, stats.label_counts):
            print(f"label={name} count={int(count)}")
        for t, alphabet in enumerate(model.alphabets):
            print(f"position={t} symbols={alphabet.m}")
        return EXIT_OK

    config = TrainConfig(learning_rate=options["lr"], epochs=options["epochs"])
    row_labels, features = _read_dataset(args.dataset, real_mode=True)
    labels = LabelSpace(tuple(sorted(set(row_labels))))
    features, codes = _prepare(row_labels, features, labels, features.shape[1])
    del row_labels  # only their codes are kept while training
    model, report = _gradient_descent(features, codes, labels, config)
    save_model(model, args.output)  # a model that cannot be saved prints no report
    for epoch, loss in enumerate(report.loss_curve):
        print("epoch=%d loss=%.17g" % (epoch, loss))
    print(json.dumps({
        "loss_curve": list(report.loss_curve),
        "final_accuracy": report.final_accuracy,
    }))
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    real_mode = not isinstance(model, NaiveBayesModel)
    if isinstance(model, NaiveBayesModel) and args.route == "discriminative":
        kernel = partial(nb_discriminative_log_posterior_batch,
                         model.prior, nb_to_discriminative(model))
    elif isinstance(model, NaiveBayesModel):
        kernel = partial(nb_generative_log_posterior_batch, model)
    elif type(model) in _REAL_VALUED_BATCH:
        if args.route is not None:
            raise ValueError("--route applies only to naive_bayes models")
        kernel = partial(_REAL_VALUED_BATCH[type(model)], model)
    else:
        raise ValueError("predict supports naive_bayes, disc_nb, and logreg models; "
                         "use hmm-posterior for hmm models")
    observations = _read_observations(args.data, real_mode, model.n_positions)
    rows = observations if real_mode else nb_encode(model, observations)

    # every row is evaluated and checked before anything is written
    probs = np.concatenate([
        np.exp(kernel(rows[start:start + PREDICT_BLOCK]))
        for start in range(0, len(rows), PREDICT_BLOCK)
    ])
    check_simplex_rows(probs)
    best = probs.argmax(axis=1)
    ties = (probs == probs[np.arange(len(probs)), best][:, None]).sum(axis=1) > 1

    from . import format17  # here, so that a command with no table never loads it

    names = model.labels.names
    # row 2k + tie: the argmax label k as csv quotes it, and the tie flag
    tails = format17.pieces([f",{_csv_field(name)},{tie}\r\n"
                             for name in names for tie in (0, 1)])
    tail_rows = 2 * best + ties
    no_head = format17.pieces([""])

    def lines(start, stop):
        return format17.rows(probs[start:stop], ",", no_head, tails[tail_rows[start:stop]])

    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        csv.writer(out).writerow([f"p_{name}" for name in names] + ["argmax", "tie"])
        _write_parts(lines, len(probs), _table_rows(len(names)), out)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def _parse_prior(text: str) -> list[float]:
    try:
        return [float(field) for field in text.split(",")]
    except ValueError:
        raise ValueError("--prior must be a comma-separated list of numbers") from None


def _cmd_convert(args) -> int:
    model = load_model(args.model)
    if isinstance(model, DiscriminativeNBModel):
        if args.prior is not None:
            raise ValueError("--prior applies only to logreg -> disc_nb")
        converted = nb_to_lr(model)
    elif isinstance(model, LogisticRegressionModel):
        converted = lr_to_nb(model, None if args.prior is None else _parse_prior(args.prior))
    else:
        raise ValueError("convert needs a disc_nb or logreg model")

    probes = np.random.default_rng(_PROBE_SEED).normal(
        0.0, 2.0, size=(_PROBE_COUNT, model.n_positions)
    )
    source, target = (np.exp(_REAL_VALUED_BATCH[type(m)](m, probes)) for m in (model, converted))
    discrepancy = float(np.abs(source - target).max())
    passed = discrepancy <= EQUALITY_TOL  # NaN fails too
    if passed:  # a failed conversion writes no file
        save_model(converted, args.output)
    print(f"max_probe_discrepancy={discrepancy:.3e}")
    if not passed:
        print(f"error: probe discrepancy exceeds {EQUALITY_TOL:.1e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all_suites(seed=args.seed, cases=args.cases)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"suite={result.name} cases={result.cases} "
            f"max_discrepancy={result.max_discrepancy:.3e} "
            f"tolerance={result.tolerance:.1e} {status}"
        )
    n_passed = sum(result.passed for result in results)
    print(f"{n_passed}/{len(results)} suites passed")
    return EXIT_OK if n_passed == len(results) else EXIT_VERIFY_FAILED


def _cmd_hmm_posterior(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, HmmModel):
        raise ValueError("hmm-posterior needs an hmm model")
    # every field is one step, so an empty field is an unknown symbol, not a skipped one
    observation = [field.strip() for field in args.obs.split(",")]

    needs_posteriors = args.algorithm in ("efb", "both")
    derived = needs_posteriors and model.posteriors is None
    if derived:
        model = derive_hmm_posteriors(model)

    tables = {}
    if args.algorithm in ("fb", "both"):
        tables["fb"] = forward_backward(model, observation).gamma
    if needs_posteriors:
        tables["efb"] = entropic_forward_backward(model, observation).gamma
    del observation  # T field strings, not needed while the tables print
    if derived:  # printed once both recursions have run, so a failed run prints nothing
        print("note: derived posterior columns from prior and emissions")
    for name, gamma in tables.items():
        _write_gamma(name, gamma)
    if args.algorithm == "both":
        gap = float(np.abs(tables["fb"] - tables["efb"]).max())
        print(f"max_discrepancy={gap:.3e}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbayes",
        description="Naive Bayes run generatively or discriminatively, "
                    "logistic-regression conversion, and HMM posterior marginals.",
    )
    commands = parser.add_subparsers(required=True, metavar="command")

    fit = commands.add_parser("fit", help="fit a model from a labelled CSV dataset")
    mode = fit.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generative", action="store_true",
                      help="count-based fit on symbol features")
    mode.add_argument("--discriminative", action="store_true",
                      help="full-batch gradient-descent fit on real-valued features")
    fit.add_argument("dataset", help="CSV with a label column followed by feature columns")
    fit.add_argument("-o", "--output", required=True, help="where to write the model JSON")
    fit.add_argument("--alpha", type=float,
                     help="additive smoothing for the generative fit (default 0)")
    fit.add_argument("--lr", type=float, help="learning rate (default 0.1)")
    fit.add_argument("--epochs", type=int, help="training epochs (default 100)")
    fit.set_defaults(handler=_cmd_fit)

    predict = commands.add_parser("predict", help="posterior table for a file of observations")
    predict.add_argument("model", help="model JSON produced by fit or convert")
    predict.add_argument("data", help="CSV of observations (header plus one row each)")
    predict.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")
    predict.add_argument("--route", choices=("generative", "discriminative"), default=None,
                         help="inference route for naive_bayes models (default generative)")
    predict.set_defaults(handler=_cmd_predict)

    convert = commands.add_parser("convert", help="convert between disc_nb and logreg")
    convert.add_argument("model", help="source model JSON (disc_nb or logreg)")
    convert.add_argument("-o", "--output", required=True, help="where to write the converted model")
    convert.add_argument("--prior", default=None,
                         help="comma-separated prior for logreg -> disc_nb (default uniform)")
    convert.set_defaults(handler=_cmd_convert)

    verify = commands.add_parser("verify", help="run the randomized cross-verification suites")
    verify.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    verify.add_argument("--cases", type=int, default=None,
                        help="override the per-suite case count")
    verify.set_defaults(handler=_cmd_verify)

    hmm_cmd = commands.add_parser("hmm-posterior",
                                  help="posterior marginals of an hmm model on one sequence")
    hmm_cmd.add_argument("model", help="hmm model JSON")
    hmm_cmd.add_argument("--obs", required=True, help="comma-separated observation symbols")
    hmm_cmd.add_argument("--algorithm", choices=("fb", "efb", "both"), default="both",
                         help="which recursion to run (default both)")
    hmm_cmd.set_defaults(handler=_cmd_hmm_posterior)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not in the final flush
        return code
    except BrokenPipeError:
        # the reader stopped early, which is not bad input; stdout goes to
        # os.devnull so that the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (DualBayesError, ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, DivergedLoss) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
