"""End-to-end CLI behaviour: command flows, output formats, per-seed
determinism, and the exit-code contract (0 ok, 1 verify failure, 2 bad
input, 3 numerical failure, 141 a reader that closed the pipe)."""

import csv
import io
import json
import os
import re
import shlex
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dualbayes.verify
from dualbayes import cli, core, hmm
from dualbayes.cli import PREDICT_BLOCK, TABLE_BLOCK, main
from dualbayes.core import (
    EQUALITY_TOL,
    DivergedLoss,
    DualBayesError,
    LabelSpace,
    ProbabilityVector,
)
from dualbayes.hmm import entropic_forward_backward, forward_backward
from dualbayes.logreg import LogisticRegressionModel, lr_posterior, nb_to_lr
from dualbayes.model_io import load_model, model_to_dict, save_model
from dualbayes.naive_bayes import (
    DiscriminativeNBModel,
    disc_nb_posterior,
    nb_generative_posterior,
)
from dualbayes.train import TrainConfig, fit_discriminative
from dualbayes.verify import (
    random_discriminative_nb,
    random_hmm,
    random_hmm_observation,
    random_logreg,
    random_naive_bayes,
    random_nb_observation,
)

from helpers import assert_no_child_left, run_python


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _two_sample_csv(tmp_path):
    return _write(tmp_path / "data.csv", "label,f0\na,x\nb,y\n")


def _separable_csv(tmp_path, seed=42, per_class=100):
    rng = np.random.default_rng(seed)
    lines = ["label,f0"]
    lines += [f"neg,{v}" for v in rng.normal(-2.0, 1.0, per_class)]
    lines += [f"pos,{v}" for v in rng.normal(2.0, 1.0, per_class)]
    return _write(tmp_path / "sep.csv", "\n".join(lines) + "\n")


class TestFit:
    def test_generative_two_samples(self, tmp_path, capsys):
        dataset = _two_sample_csv(tmp_path)
        out = tmp_path / "model.json"
        code = main(["fit", "--generative", "--alpha", "0", dataset, "-o", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "samples=2" in captured
        assert "label=a count=1" in captured
        model = load_model(out)
        assert model.prior.entries.tolist() == [0.5, 0.5]

    def test_empty_dataset_exits_2(self, tmp_path, capsys):
        dataset = _write(tmp_path / "empty.csv", "")
        code = main(["fit", "--generative", dataset, "-o", str(tmp_path / "m.json")])
        assert code == 2
        assert "empty dataset" in capsys.readouterr().err

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        dataset = _write(tmp_path / "bad.csv", "label,f0\na,x\nb\n")
        code = main(["fit", "--generative", dataset, "-o", str(tmp_path / "m.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_discriminative_reaches_accuracy(self, tmp_path, capsys):
        dataset = _separable_csv(tmp_path)
        out = tmp_path / "model.json"
        code = main([
            "fit", "--discriminative", "--lr", "0.1", "--epochs", "500", dataset, "-o", str(out),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("epoch=0 loss=")
        report = json.loads(lines[-1])
        assert report["final_accuracy"] >= 0.95
        assert len(report["loss_curve"]) == 500
        model = load_model(out)
        assert model.n_positions == 1

    def test_discriminative_fit_output_is_byte_identical(self, tmp_path, capsys):
        dataset = _separable_csv(tmp_path, seed=5, per_class=25)
        data = [(label, [float(v)]) for label, v in _csv_rows(dataset)[1:]]
        argv = ["fit", "--discriminative", "--lr", "0.05", "--epochs", "30", dataset,
                "-o", str(tmp_path / "a.json")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        argv[-1] = str(tmp_path / "b.json")
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
        # the CLI trains on the reader's arrays; the library fit on rows agrees bit for bit
        config = TrainConfig(0.05, 30)
        model, report = fit_discriminative(data, 1, LabelSpace(("neg", "pos")), config)
        save_model(model, tmp_path / "library.json")
        assert (tmp_path / "library.json").read_text() == (tmp_path / "a.json").read_text()
        assert json.loads(first.splitlines()[-1])["loss_curve"] == list(report.loss_curve)

    @pytest.mark.parametrize("mode, option, value", [
        ("--discriminative", "--batch-size", "8"),
        ("--discriminative", "--seed", "3"),
        ("--generative", "--batch-size", "7"),
        ("--generative", "--seed", "1"),
    ], ids=["--batch-size-8", "--seed-3", "generative-batch-size", "generative-seed"])
    def test_a_removed_training_option_is_refused_by_the_parser(self, tmp_path, capsys,
                                                               mode, option, value):
        # training is full batch, so no fit option of either mode sets a batch size or a seed
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exited:
            main(["fit", mode, option, value,
                  _separable_csv(tmp_path, per_class=10), "-o", str(out)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: {option}\n")
        assert "sep.csv" not in err  # the dataset path, which the option's value displaced
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--lr", "0", "learning_rate must be positive and finite"),
        ("--lr", "-0.5", "learning_rate must be positive and finite"),
        ("--lr", "inf", "learning_rate must be positive and finite"),
        ("--lr", "nan", "learning_rate must be positive and finite"),
        ("--epochs", "0", "epochs must be at least 1"),
        ("--epochs", "-3", "epochs must be at least 1"),
    ], ids=["lr-0", "lr-negative", "lr-inf", "lr-nan", "epochs-0", "epochs-negative"])
    def test_bad_option_is_reported_before_the_dataset_is_read(self, tmp_path, capsys,
                                                               option, value, message):
        # the dataset's bad row would be reported instead if it were read first
        dataset = _write(tmp_path / "d.csv", "label,f0\na,0.5\nb,oops\n")
        out = tmp_path / "m.json"
        code = main(["fit", "--discriminative", option, value, dataset, "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_an_overflowing_step_exits_3_with_one_error_line(self, tmp_path, capsys):
        # the first step overflows the weights; under the test suite's filters
        # numpy's overflow warning would leave main as an exception
        dataset = _write(tmp_path / "d.csv", "label,x\na,100\nb,300\na,120\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--discriminative", "--epochs", "1", "--lr", "1e308", dataset,
                     "-o", str(out)]) == 3
        assert capsys.readouterr() == ("", "error: parameters became non-finite\n")
        assert not out.exists()

    def test_a_header_of_one_column_exits_2(self, tmp_path, capsys):
        dataset = _write(tmp_path / "d.csv", "label\na\n")
        assert main(["fit", "--generative", dataset, "-o", str(tmp_path / "m.json")]) == 2
        message = "line 1: header needs a label column and at least one feature column"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("mode, option, value", [
        ("--generative", "--lr", "9"),
        ("--generative", "--epochs", "5"),
        ("--discriminative", "--alpha", "3"),
    ], ids=["lr", "epochs", "alpha"])
    def test_an_option_of_the_other_mode_is_refused_before_the_dataset_is_read(
            self, tmp_path, capsys, mode, option, value):
        # line 3 is too wide, which would be reported instead if it were read first
        dataset = _write(tmp_path / "d.csv", "label,f0\na,0.5\nb,1,2\n")
        out = tmp_path / "m.json"
        assert main(["fit", mode, option, value, dataset, "-o", str(out)]) == 2
        other = "discriminative" if mode == "--generative" else "generative"
        assert capsys.readouterr() == ("", f"error: {option} applies only to fit --{other}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["--generative", "--discriminative"])
    def test_a_model_that_cannot_be_saved_prints_no_report(self, tmp_path, capsys, mode):
        out = tmp_path / "missing" / "m.json"
        assert main(["fit", mode, _separable_csv(tmp_path, per_class=10), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("alpha", ["-1", "inf", "nan"])
    def test_bad_alpha_is_reported_before_the_dataset_is_read(self, tmp_path, capsys, alpha):
        # line 3 is too wide, which would be reported instead if it were read first
        dataset = _write(tmp_path / "d.csv", "label,f0\na,x\nb,y,z\n")
        out = tmp_path / "m.json"
        code = main(["fit", "--generative", "--alpha", alpha, dataset, "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: smoothing_alpha must be finite and nonnegative\n"
        assert not out.exists()

    def test_discriminative_fit_keeps_one_copy_of_the_data(self, tmp_path, capsys):
        # the trainer reads the reader's (S, T) array as it is, so no copy of
        # the data is made after the file is parsed.  The peak's growth from
        # 2000 to 4000 rows cancels the fixed costs, once a first small fit
        # has paid the one-time ones: about 1.5 times the added data with one
        # copy held (labels, codes and per-row buffers make the rest), and
        # 2.5 times with two
        values = np.random.default_rng(45).normal(size=(4000, 20))
        peaks = []
        for size in (200, 2000, 4000):
            lines = ["label," + ",".join(f"f{t}" for t in range(20))]
            lines += [f"l{i % 3}," + ",".join(map(repr, row))
                      for i, row in enumerate(values[:size].tolist())]
            dataset = _write(tmp_path / f"{size}.csv", "\n".join(lines) + "\n")
            tracemalloc.start()
            try:
                code = main(["fit", "--discriminative", "--epochs", "3",
                             dataset, "-o", str(tmp_path / "m.json")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[2] - peaks[1] < 2.0 * values[2000:].nbytes

    def test_diverging_fit_exits_3(self, tmp_path, capsys):
        dataset = _write(
            tmp_path / "huge.csv",
            "label,f0\na,1e200\nb,-1e200\na,5e199\nb,-5e199\n",
        )
        code = main([
            "fit", "--discriminative", "--lr", "0.1", "--epochs", "10",
            dataset, "-o", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err


class TestPredict:
    def _uniform_model(self, tmp_path):
        dataset = _write(tmp_path / "d.csv", "label,f0\na,x\na,y\nb,x\nb,y\n")
        out = tmp_path / "uniform.json"
        assert main(["fit", "--generative", dataset, "-o", str(out)]) == 0
        return out

    def test_an_observation_header_of_the_wrong_width_exits_2(self, tmp_path, capsys):
        save_model(random_logreg(np.random.default_rng(31), n_labels=2, t_len=2),
                   tmp_path / "lr.json")
        data = _write(tmp_path / "obs.csv", "f0,f1,f2\n0.5,0.5,0.5\n")
        assert main(["predict", str(tmp_path / "lr.json"), data]) == 2
        message = "error: line 1: header has 3 columns, model expects 2\n"
        assert capsys.readouterr() == ("", message)

    def test_uniform_model_ties_flagged(self, tmp_path):
        model_path = self._uniform_model(tmp_path)
        obs = _write(tmp_path / "obs.csv", "f0\nx\ny\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", str(model_path), obs, "-o", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows[0] == ["p_a", "p_b", "argmax", "tie"]
        for row in rows[1:]:
            assert float(row[0]) == 0.5
            assert row[2] == "a"
            assert row[3] == "1"

    def test_rows_match_library_bit_for_bit(self, tmp_path):
        dataset = _write(
            tmp_path / "d.csv",
            "label,f0,f1\na,x,u\na,y,u\nb,x,v\nb,y,v\na,x,v\n",
        )
        model_path = tmp_path / "m.json"
        assert main(["fit", "--generative", "--alpha", "0.5", dataset, "-o", str(model_path)]) == 0
        model = load_model(model_path)
        obs = _write(tmp_path / "obs.csv", "f0,f1\nx,u\ny,v\nx,v\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", str(model_path), obs, "-o", str(out)]) == 0
        rows = _csv_rows(out)[1:]
        for row, observation in zip(rows, [["x", "u"], ["y", "v"], ["x", "v"]]):
            expected = nb_generative_posterior(model, observation).entries
            parsed = np.array([float(row[0]), float(row[1])])
            assert np.array_equal(parsed, expected)

        # every model kind, on files that span more than one predict block
        n_rows = PREDICT_BLOCK + 37
        rng = np.random.default_rng(29)
        symbolic = random_naive_bayes(rng, n_labels=8, t_len=4)
        symbols = [random_nb_observation(rng, symbolic) for _ in range(n_rows)]
        disc = random_discriminative_nb(rng, n_labels=8, t_len=5)
        reals = rng.normal(0.0, 2.0, size=(n_rows, 5))
        real_fields = [[repr(v) for v in row] for row in reals.tolist()]
        cases = [
            (symbolic, nb_generative_posterior, symbols, symbols),
            (disc, disc_nb_posterior, reals, real_fields),
            (nb_to_lr(disc), lr_posterior, reals, real_fields),
        ]
        for kind, (model, posterior, observations, fields) in enumerate(cases):
            model_path, out = tmp_path / f"m{kind}.json", tmp_path / f"pred{kind}.csv"
            save_model(model, model_path)
            header = ",".join(f"f{t}" for t in range(model.n_positions))
            obs = _write(tmp_path / f"obs{kind}.csv",
                         header + "\n" + "\n".join(",".join(row) for row in fields) + "\n")
            assert main(["predict", str(model_path), obs, "-o", str(out)]) == 0
            rows = _csv_rows(out)[1:]
            assert len(rows) == n_rows
            n = model.labels.n
            for row, observation in zip(rows, observations):
                expected = posterior(model, observation).entries
                assert np.array_equal(np.array([float(p) for p in row[:n]]), expected)

    def test_discriminative_route_agrees_with_generative(self, tmp_path):
        dataset = _write(
            tmp_path / "d.csv",
            "label,f0,f1\na,x,u\na,y,u\nb,x,v\nb,y,v\na,x,v\n",
        )
        model_path = tmp_path / "m.json"
        assert main(["fit", "--generative", "--alpha", "1", dataset, "-o", str(model_path)]) == 0
        obs = _write(tmp_path / "obs.csv", "f0,f1\nx,u\ny,v\n")
        gen_out, disc_out = tmp_path / "gen.csv", tmp_path / "disc.csv"
        assert main(["predict", str(model_path), obs, "-o", str(gen_out)]) == 0
        assert main([
            "predict", "--route", "discriminative", str(model_path), obs, "-o", str(disc_out),
        ]) == 0
        gen_rows = _csv_rows(gen_out)[1:]
        disc_rows = _csv_rows(disc_out)[1:]
        for gen_row, disc_row in zip(gen_rows, disc_rows):
            for g, d in zip(gen_row[:2], disc_row[:2]):
                assert abs(float(g) - float(d)) <= 1e-10

    def test_unseen_symbol_exits_2_with_zero_evidence(self, tmp_path, capsys):
        dataset = _write(tmp_path / "d.csv", "label,f0\na,x\nb,y\n")
        model_path = tmp_path / "m.json"
        assert main(["fit", "--generative", "--alpha", "0", dataset, "-o", str(model_path)]) == 0
        # symbol y is declared but impossible for label a, and vice versa;
        # a model whose alphabet misses the queried symbol exits 2 as well
        obs = _write(tmp_path / "obs.csv", "f0\nq\n")
        code = main(["predict", str(model_path), obs])
        assert code == 2
        assert "unknown symbol" in capsys.readouterr().err

    def test_zero_evidence_message(self, tmp_path, capsys):
        dataset = _write(tmp_path / "d.csv", "label,f0,f1\na,x,u\nb,y,v\n")
        model_path = tmp_path / "m.json"
        assert main(["fit", "--generative", "--alpha", "0", dataset, "-o", str(model_path)]) == 0
        obs = _write(tmp_path / "obs.csv", "f0,f1\nx,v\n")
        code = main(["predict", str(model_path), obs])
        assert code == 2
        assert "zero evidence" in capsys.readouterr().err

    def test_bad_third_row_exits_2_before_any_output(self, tmp_path, capsys):
        dataset = _write(tmp_path / "d.csv", "label,f0,f1\na,x,u\nb,y,v\n")
        model_path = tmp_path / "m.json"
        assert main(["fit", "--generative", "--alpha", "0", dataset, "-o", str(model_path)]) == 0
        capsys.readouterr()
        cases = [
            ([], "x,u\ny,v\nq,u\n", "error: unknown symbol 'q'"),
            ([], "x,u\ny,v\nx,v\n",
             "error: zero evidence: the observation has probability zero under every label"),
            (["--route", "discriminative"], "x,u\ny,v\nx,v\n", "error: every weight is zero"),
        ]
        for route, rows, message in cases:
            obs = _write(tmp_path / "obs.csv", "f0,f1\n" + rows)
            out = tmp_path / "pred.csv"
            assert main(["predict", *route, str(model_path), obs]) == 2
            assert main(["predict", *route, str(model_path), obs, "-o", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == 2 * (message + "\n")
            assert not out.exists()

    @pytest.mark.parametrize("kind", ["generative", "columns", "disc_nb", "logreg"])
    def test_no_per_row_probability_vectors(self, tmp_path, monkeypatch, kind):
        # structural guard against a per-row path: the number of validated
        # vectors built by predict must not grow with the number of rows
        rng = np.random.default_rng(31)
        argv = ["predict"]
        if kind in ("generative", "columns"):
            model = random_naive_bayes(rng, n_labels=3, t_len=3)
            draw = lambda: random_nb_observation(rng, model)
            argv += ["--route", "discriminative"] if kind == "columns" else []
        else:
            model = random_discriminative_nb(rng, n_labels=3, t_len=3)
            model = nb_to_lr(model) if kind == "logreg" else model
            draw = lambda: [repr(v) for v in rng.normal(size=3).tolist()]
        model_path = tmp_path / "m.json"
        save_model(model, model_path)

        constructed = 0
        original = ProbabilityVector.__post_init__

        def counting(self):
            nonlocal constructed
            constructed += 1
            original(self)

        monkeypatch.setattr(ProbabilityVector, "__post_init__", counting)
        counts = []
        for n_rows in (50, 200):
            obs = _write(tmp_path / "obs.csv", "f0,f1,f2\n"
                         + "".join(",".join(draw()) + "\n" for _ in range(n_rows)))
            constructed = 0
            assert main([*argv, str(model_path), obs, "-o", str(tmp_path / "p.csv")]) == 0
            counts.append(constructed)
        assert counts[0] == counts[1]

    def test_label_names_are_csv_quoted(self, tmp_path, capsys):
        # names holding a comma, a double quote and spaces are written as
        # csv.writer quotes them, with \r\n line ends, to a file and to stdout
        labels = LabelSpace(("a,b", 'q"x', " s p "))
        model = LogisticRegressionModel(labels, [[1.0], [0.0], [-1.0]], [0.0, 1.0, 0.0])
        model_path = tmp_path / "m.json"
        save_model(model, model_path)
        values = [3.0, 0.0, -3.0, 0.5]
        obs = _write(tmp_path / "obs.csv", "f0\n" + "".join(f"{v!r}\n" for v in values))

        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow([f"p_{name}" for name in labels.names] + ["argmax", "tie"])
        winners = set()
        for v in values:
            probs = lr_posterior(model, [v]).entries
            best = int(probs.argmax())
            winners.add(best)
            tie = int((probs == probs[best]).sum() > 1)
            writer.writerow([format(p, ".17g") for p in probs] + [labels.names[best], str(tie)])
        assert winners == {0, 1, 2}

        out = tmp_path / "pred.csv"
        assert main(["predict", str(model_path), obs, "-o", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == expected.getvalue()
        capsys.readouterr()
        assert main(["predict", str(model_path), obs]) == 0
        assert capsys.readouterr().out == expected.getvalue()

    def test_overflowing_disc_nb_row_exits_2(self, tmp_path, capsys):
        # slopes of +-1e308 at y=10 overflow the logits into a NaN row, which
        # the simplex check rejects before anything is written
        model_path = tmp_path / "disc.json"
        save_model(
            DiscriminativeNBModel(
                LabelSpace(("a", "b")), ProbabilityVector.uniform(2),
                np.array([[1e308], [-1e308]]), np.zeros((2, 1)),
            ),
            model_path,
        )
        obs = _write(tmp_path / "obs.csv", "f0\n10\n")
        assert main(["predict", str(model_path), obs]) == 2
        assert capsys.readouterr() == ("", "error: row 0: entries must be finite\n")

    def test_hmm_model_rejected(self, tmp_path, capsys):
        model_path = tmp_path / "h.json"
        save_model(random_hmm(np.random.default_rng(0)), model_path)
        obs = _write(tmp_path / "obs.csv", "f0\ns0\n")
        assert main(["predict", str(model_path), obs]) == 2
        assert "hmm-posterior" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["generative", "discriminative"])
    @pytest.mark.parametrize("kind", ["disc_nb", "logreg"])
    def test_route_on_a_real_valued_model_exits_2(self, tmp_path, capsys, kind, route):
        model = random_discriminative_nb(np.random.default_rng(31), n_labels=3, t_len=2)
        model_path, out = tmp_path / "m.json", tmp_path / "pred.csv"
        save_model(model if kind == "disc_nb" else nb_to_lr(model), model_path)
        obs = _write(tmp_path / "obs.csv", "f0,f1\n0.5,-1.0\n")
        assert main(["predict", "--route", route, str(model_path), obs, "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: --route applies only to naive_bayes models\n")
        assert not out.exists()


# Files that both real-valued readers must read alike.  "§" marks the
# label's end on a line: the labelled file has "," there, and the unlabelled
# one drops the line's text up to it.  Each file's header has two feature
# columns.  The two flags say whether the fast pass, `cli._parse_plain`,
# reads the labelled and the unlabelled file; a file it refuses goes to the
# record loop.
_LIMIT = csv.field_size_limit()
_ROWS = "a§1,2\nb§3,4\n"
_READER_CORPUS = [
    pytest.param("label§f0,f1\n" + _ROWS, True, True, id="lf"),
    pytest.param("label§f0,f1\r\na§1,2\r\nb§3,4\r\n", True, True, id="crlf"),
    pytest.param("label§f0,f1\ra§1,2\rb§3,4\r", True, True, id="cr-only"),
    pytest.param("label§f0,f1\na§1,2\nb§3,4", True, True, id="no-final-newline"),
    pytest.param("\n\r\nlabel§f0,f1\n\na§1,2\r\n\n\rb§3,4\n\n", True, True, id="blank-lines"),
    pytest.param("label§f0,f1\na§1,2\n \t \nb§3,4\n", False, False, id="whitespace-line"),
    pytest.param("label§f0,f1\na§1,2\n\v\nb§3,4\n", False, False, id="vt-line"),
    pytest.param("label§f0,f1\na§1,2\n\f\nb§3,4\n", False, False, id="ff-line"),
    pytest.param("label§f0,f1\na§1,2,\nb§3,4\n", False, False, id="trailing-comma"),
    pytest.param("label§f0,f1\na§1,2\nb§3,4,5\n", False, False, id="one-row-too-wide"),
    pytest.param("label§f0,f1\na§1,2\nb§3\n", False, False, id="one-row-too-narrow"),
    pytest.param("label§f0,f1\na§1,2,0\nb§3,4,0\n", False, False, id="every-row-too-wide"),
    pytest.param("label§f0,f1\na§1\nb§3\n", False, False, id="every-row-too-narrow"),
    pytest.param('label§f0,"f\n1"\n' + _ROWS, True, True, id="header-over-two-lines"),
    pytest.param('label§f0,"f\r\n1"\r\n' + _ROWS, True, True, id="header-over-two-crlf-lines"),
    pytest.param('label§f0,f1\na§"1.5",2\nb§3,"4"\n', False, False, id="quoted-numbers"),
    pytest.param('label§f0,f1\n"a"§1,2\n"b""c"§3,4\n', False, True, id="quoted-labels"),
    pytest.param('label§f0,f1\n"a,b"§1,2\nb§3,4\n', False, True, id="quoted-label-with-comma"),
    pytest.param('label§f0,f1\na§"1\n",2\nb§3,4\n', False, False, id="record-over-two-lines"),
    pytest.param("label§f0,f1\na§1_0,2\nb§3,4\n", False, False, id="underscore"),
    pytest.param("label§f0,f1\na§١,2\nb§3,4\n", False, False, id="arabic-indic-digit"),
    pytest.param("label§f0,f1\na§0x10,2\nb§3,4\n", False, False, id="hex"),
    pytest.param("label§f0,f1\na§+1,nan\nb§1e400,-inf\n", True, True, id="sign-nan-inf"),
    pytest.param("label§f0,f1\na§ 1.5 ,\t2\xa0\nb§ 3,4\x85\n", True, True,
                 id="whitespace-around-numbers"),
    pytest.param("label§f0,f1\na\0§1,2\nb§3,4\n", False, True, id="nul-in-label"),
    pytest.param("label§f0,f1\na§1\0,2\nb§3,4\n", False, False, id="nul-in-number"),
    pytest.param("label§f0,f1\na§1," + "0" * _LIMIT + "\n", False, False,
                 id="field-at-the-csv-limit"),
    pytest.param("label§f0,f1\na§1," + "0" * (_LIMIT + 1) + "\n", False, False,
                 id="field-over-the-csv-limit"),
    pytest.param("label§f0,f1\n" + "a" * (_LIMIT + 1) + "§1,2\n", False, True,
                 id="label-over-the-csv-limit"),
    pytest.param("\ufefflabel§f0,f1\n" + _ROWS, True, True, id="bom"),
    pytest.param("label§f0,f1\n x §1,2\n§3,4\né§5,6\n日本§7,8\n", True, True,
                 id="spaced-empty-and-non-ascii-labels"),
    pytest.param("label§f0,f1\n#a§1,2\nb§3,4\n", True, True, id="hash-label"),
    pytest.param("label§f0,f1\na§1,#2\nb§3,4\n", False, False, id="hash-number"),
    pytest.param("label§f0,f1\na\t1\t2\nb§3,4\n", False, False, id="tab-separated"),
    pytest.param("label§f0,f1\n", False, False, id="header-only"),
    pytest.param("label§f0,f1\n\n\r\n", False, False, id="header-and-blank-lines"),
    pytest.param("", False, False, id="empty"),
    pytest.param("label§f0,f1\n" + 2000 * "a§1,2\n" + "b§3\udcff,4\n", False, False,
                 id="invalid-utf8-after-the-first-chunk"),
    pytest.param("label§f0,f1\n" + "".join(
        f"c{k % 8}§{x!r},{y!r}\n"
        for k, (x, y) in enumerate(np.random.default_rng(46).normal(size=(300, 2)).tolist())
    ), True, True, id="17-digit-reprs"),
]


class TestRealValuedParse:
    """``fit --discriminative`` and real-valued ``predict`` read numbers as
    ``float()`` does and name the first bad line."""

    @pytest.fixture(params=["fit", "predict"])
    def command(self, request, tmp_path, capsys):
        # (kind, run); run(text) -> (exit code, stdout, stderr, model JSON or None)
        if request.param == "fit":
            def run(text):
                data, model = tmp_path / "d.csv", tmp_path / "m.json"
                data.write_bytes(text.encode("utf-8"))
                if model.exists():
                    model.unlink()
                code = main(["fit", "--discriminative", "--epochs", "3",
                             str(data), "-o", str(model)])
                captured = capsys.readouterr()
                saved = model.read_text() if model.exists() else None
                return code, captured.out, captured.err, saved
            return request.param, run

        model_path = tmp_path / "lr.json"
        save_model(random_logreg(np.random.default_rng(41), n_labels=3, t_len=2), model_path)

        def run(text):
            data = tmp_path / "obs.csv"
            data.write_bytes(text.encode("utf-8"))
            code = main(["predict", str(model_path), str(data)])
            captured = capsys.readouterr()
            return code, captured.out, captured.err, None
        return request.param, run

    @staticmethod
    def _file(kind, rows, header="f0,f1"):
        # rows are "<label>|<f0>,<f1>"; predict files drop the label column
        if kind == "fit":
            lines = ["label," + header] + [row.replace("|", ",") for row in rows]
        else:
            lines = [header] + [row.split("|", 1)[1] for row in rows]
        return "\n".join(lines) + "\n"

    def test_non_numeric_field_names_its_line(self, command):
        kind, run = command
        code, out, err, _ = run(self._file(kind, ["a|1,2", "b|1,x"]))
        assert code == 2 and out == ""
        what = "feature fields" if kind == "fit" else "fields"
        assert err == f"error: line 3: {what} must be numbers\n"

    def test_named_line_is_the_physical_line(self, command):
        # the blank line 3 is counted: the bad record is on line 4; for
        # predict the file is "f0,f1\n1,2\n\n1,x\n" on a logreg model
        kind, run = command
        head, bad = self._file(kind, ["a|1,2", "b|1,x"]).rsplit("\n", 2)[:2]
        code, out, err, _ = run(head + "\n\n" + bad + "\n")
        assert code == 2 and out == ""
        what = "feature fields" if kind == "fit" else "fields"
        assert err == f"error: line 4: {what} must be numbers\n"

    def test_multi_line_record_is_named_by_its_last_line(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", 'label,f0\n"a\nb",x\n')
        assert main(["fit", "--discriminative", data, "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == "error: line 3: feature fields must be numbers\n"

    @pytest.mark.parametrize("rows, line", [
        (["a|1,2", "b|1,2,3"], 3),
        (["a|1,2,3", "b|1,2,3"], 2),  # every row is wider than the header
    ])
    def test_row_with_an_extra_field_names_its_line(self, command, rows, line):
        kind, run = command
        code, out, err, _ = run(self._file(kind, rows))
        assert code == 2 and out == ""
        width = 3 if kind == "fit" else 2
        assert err == f"error: line {line}: expected {width} fields, got {width + 1}\n"

    def test_header_without_rows(self, command):
        kind, run = command
        code, out, err, _ = run(self._file(kind, []))
        assert code == 2 and out == ""
        assert err == ("error: empty dataset\n" if kind == "fit"
                       else "error: observation file has no rows\n")

    @pytest.mark.parametrize("variant, plain", [
        ('a|"1.5",2', "a|1.5,2"),
        ("a|1_0,2", "a|10,2"),
        ("a| 1.5 ,\t2", "a|1.5,2"),
    ])
    def test_numbers_read_as_float_reads_them(self, command, variant, plain):
        kind, run = command
        rows = ["b|0.25,-3", "c|7,1e-3"]
        first = run(self._file(kind, [variant] + rows))
        assert first[0] == 0
        assert first == run(self._file(kind, [plain] + rows))

    def test_blank_first_line_is_skipped_before_the_header(self, command):
        # the header looks numeric, so reading it as a data row would show
        kind, run = command
        rows = ["a|1,2", "b|3,4"]
        text = self._file(kind, rows, header="0.5,0.25")
        result = run("\n" + text)
        assert result[0] == 0
        assert result == run(text)
        if kind == "predict":
            assert len(result[1].splitlines()) == 1 + len(rows)

    def test_one_column_header_without_rows(self, tmp_path, capsys):
        model_path = tmp_path / "lr.json"
        save_model(random_logreg(np.random.default_rng(43), n_labels=2, t_len=1), model_path)
        obs = _write(tmp_path / "obs.csv", "f0\n")
        assert main(["predict", str(model_path), obs]) == 2
        assert capsys.readouterr().err == "error: observation file has no rows\n"

    def test_quoted_labels_keep_their_line_ends(self, tmp_path, capsys):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        data.write_bytes(b'label,f0\r\n"a\r\nb",1\r\n"c,""d""",2\r\n e ,3\r\n')
        assert main(["fit", "--discriminative", "--epochs", "2", str(data), "-o", str(model)]) == 0
        assert load_model(model).labels.names == (" e ", "a\r\nb", 'c,"d"')

    @staticmethod
    def _read_outcome(path, labelled):
        """The labels and array bytes that reading ``path`` gives, or its error;
        a warning fails the test."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                if labelled:
                    labels, values = cli._read_dataset(path, real_mode=True)
                else:
                    labels, values = [], cli._read_observations(path, real_mode=True,
                                                                expected=2)
            except (DualBayesError, ValueError, csv.Error) as exc:
                return type(exc).__name__, str(exc)
        return labels, values.dtype, values.shape, values.tobytes()

    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("text, fast_labelled, fast_unlabelled", _READER_CORPUS)
    def test_the_fast_pass_and_the_record_loop_read_a_file_alike(
            self, tmp_path, monkeypatch, text, fast_labelled, fast_unlabelled, labelled):
        if labelled:
            text = text.replace("§", ",")
        else:
            text = "".join(part.split("§", 1)[-1] for part in re.split(r"(\r\n?|\n)", text))
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        parse_plain, parsed = cli._parse_plain, []
        monkeypatch.setattr(cli, "_parse_plain",
                            lambda *args: parsed.append(parse_plain(*args)) or parsed[-1])
        fast = self._read_outcome(path, labelled)
        monkeypatch.setattr(cli, "_parse_plain", lambda *args: None)
        assert fast == self._read_outcome(path, labelled)
        took_fast_pass = any(result is not None for result in parsed)
        assert took_fast_pass == (fast_labelled if labelled else fast_unlabelled)

    @pytest.mark.parametrize("kind", ["fit", "predict"])
    def test_plain_numeric_files_take_the_fast_pass(self, tmp_path, monkeypatch, capsys, kind):
        # disc-real's format: labels c<k>, header x<t>, repr() of each feature
        read_rows = cli._read_rows

        def no_real_valued_records(records, width, real_mode, labelled):
            if real_mode:
                raise AssertionError("the record loop read a real-valued file")
            return read_rows(records, width, real_mode, labelled)

        monkeypatch.setattr(cli, "_read_rows", no_real_valued_records)
        rng = np.random.default_rng(47)
        lines = [",".join(f"x{t}" for t in range(20))]
        lines += [",".join(map(repr, row)) for row in rng.normal(size=(500, 20)).tolist()]
        if kind == "fit":
            lines = [f"c{k % 8},{line}" if k else f"label,{line}"
                     for k, line in enumerate(lines)]
            argv = ["fit", "--discriminative", "--epochs", "2", "-o", str(tmp_path / "m.json")]
        else:
            model = tmp_path / "lr.json"
            save_model(random_logreg(rng, n_labels=8, t_len=20), model)
            argv = ["predict", str(model)]
        data = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        assert main(argv + [data]) == 0
        capsys.readouterr()

        lines[3] = '"' + lines[3].replace(",", '",', 1)  # one quoted field
        data = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        with pytest.raises(AssertionError, match="the record loop read a real-valued file"):
            main(argv + [data])

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "one-quoted-field"])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_fields_are_converted_as_the_records_are_read(
            self, tmp_path, monkeypatch, labelled, quoted):
        # a list of every row's field strings would cost about 70 bytes per
        # 17-digit field; the fast pass parses into one table, and the record
        # loop, which reads the file with a quoted field, converts record by
        # record, so either keeps the traced peak near the 8 bytes per field
        # of the float64 result
        read_rows, loops = cli._read_rows, []
        monkeypatch.setattr(cli, "_read_rows",
                            lambda *args: loops.append(args) or read_rows(*args))
        values = np.random.default_rng(44).normal(size=(2000, 20))
        lines = [",".join(f"f{t}" for t in range(20))]
        lines += [",".join(map(repr, row)) for row in values.tolist()]
        if quoted:
            lines[1] = '"' + lines[1].replace(",", '",', 1)
        if labelled:
            lines = [f"l{i % 3},{line}" for i, line in enumerate(lines)]
        path = _write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            if labelled:
                _, read = cli._read_dataset(path, real_mode=True)
            else:
                read = cli._read_observations(path, real_mode=True, expected=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loops) == quoted
        assert np.array_equal(read, values)
        assert peak < 5 * values.nbytes

class TestConvert:
    def test_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        source = tmp_path / "disc.json"
        save_model(random_discriminative_nb(rng, n_labels=3, t_len=2), source)
        collapsed = tmp_path / "lr.json"
        assert main(["convert", str(source), "-o", str(collapsed)]) == 0
        first = capsys.readouterr().out
        assert "max_probe_discrepancy=" in first
        assert float(first.split("=")[1]) <= 1e-10
        back = tmp_path / "disc2.json"
        assert main(["convert", str(collapsed), "-o", str(back)]) == 0
        second = capsys.readouterr().out
        assert float(second.split("=")[1]) <= 1e-10
        assert load_model(back).n_positions == 2

    def test_flat_model_collapses_to_zero_weights(self, tmp_path):
        from dualbayes.core import LabelSpace, ProbabilityVector
        from dualbayes.naive_bayes import DiscriminativeNBModel

        source = tmp_path / "flat.json"
        save_model(
            DiscriminativeNBModel(
                LabelSpace(("a", "b")), ProbabilityVector.uniform(2),
                np.zeros((2, 2)), np.zeros((2, 2)),
            ),
            source,
        )
        out = tmp_path / "lr.json"
        assert main(["convert", str(source), "-o", str(out)]) == 0
        model = load_model(out)
        assert np.array_equal(model.weights, np.zeros((2, 2)))
        assert model.biases[0] == model.biases[1]

    def test_zero_prior_exits_2(self, tmp_path, capsys):
        source = tmp_path / "lr.json"
        save_model(random_logreg(np.random.default_rng(3), n_labels=2, t_len=2), source)
        code = main(["convert", str(source), "-o", str(tmp_path / "o.json"),
                     "--prior", "1.0,0.0"])
        assert code == 2
        assert "prior must be strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("n_labels, prior, message", [
        (2, "0,0.5", "prior: entries sum to 0.5, not 1"),
        (3, "0.5,0.5", "prior has 2 entries, expected 3 (one per label)"),
        (2, "", "--prior must be a comma-separated list of numbers"),
    ])
    def test_bad_prior_exits_2(self, tmp_path, capsys, n_labels, prior, message):
        source = tmp_path / "lr.json"
        save_model(random_logreg(np.random.default_rng(3), n_labels=n_labels, t_len=2), source)
        out = tmp_path / "o.json"
        assert main(["convert", str(source), "-o", str(out), "--prior", prior]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_prior_on_disc_nb_exits_2(self, tmp_path, capsys):
        source = tmp_path / "disc.json"
        save_model(random_discriminative_nb(np.random.default_rng(3), n_labels=2, t_len=2), source)
        out = tmp_path / "lr.json"
        assert main(["convert", str(source), "-o", str(out), "--prior", "0.9,0.1"]) == 2
        assert capsys.readouterr() == ("", "error: --prior applies only to logreg -> disc_nb\n")
        assert not out.exists()

    def test_nan_probe_discrepancy_exits_3(self, tmp_path, capsys):
        # slopes of +-1e308 overflow the logits of both routes into NaN rows
        source = tmp_path / "disc.json"
        save_model(
            DiscriminativeNBModel(
                LabelSpace(("a", "b")), ProbabilityVector.uniform(2),
                np.array([[1e308], [-1e308]]), np.zeros((2, 1)),
            ),
            source,
        )
        assert main(["convert", str(source), "-o", str(tmp_path / "lr.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "max_probe_discrepancy=nan\n"
        assert captured.err == f"error: probe discrepancy exceeds {EQUALITY_TOL:.1e}\n"
        assert not (tmp_path / "lr.json").exists()

    def test_naive_bayes_model_rejected(self, tmp_path, capsys):
        dataset = _write(tmp_path / "d.csv", "label,f0\na,x\nb,y\n")
        model_path = tmp_path / "nb.json"
        assert main(["fit", "--generative", dataset, "-o", str(model_path)]) == 0
        assert main(["convert", str(model_path), "-o", str(tmp_path / "o.json")]) == 2
        assert "disc_nb or logreg" in capsys.readouterr().err


class TestVerify:
    def test_seeded_runs_are_byte_identical(self, capsys):
        assert main(["verify", "--seed", "5", "--cases", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "5", "--cases", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.count("PASS") == 4
        assert "4/4 suites passed" in first

    def test_smoke_run(self, capsys):
        assert main(["verify", "--cases", "1"]) == 0
        assert "1/1" not in capsys.readouterr().out  # four suites, one case each

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_cases_below_one_exit_2(self, capsys, cases):
        assert main(["verify", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cases must be at least 1, got {cases}\n"

    def test_suite_failure_exits_1(self, capsys, monkeypatch):
        import dualbayes.cli as cli_module
        from dualbayes.verify import SuiteResult

        def broken(seed=0, cases=None):
            return [SuiteResult("fb-vs-efb", 5, 0.3)]

        monkeypatch.setattr(cli_module, "run_all_suites", broken)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "0/1 suites passed" in out


class TestHmmPosterior:
    def test_both_algorithms_and_discrepancy(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        model = random_hmm(rng, n_labels=3, m_symbols=3, derive=True)
        path = tmp_path / "hmm.json"
        save_model(model, path)
        symbols = ",".join(model.alphabet.symbols[:3])
        assert main(["hmm-posterior", str(path), "--obs", symbols]) == 0
        out = capsys.readouterr().out
        assert "fb t=0 " in out
        assert "efb t=0 " in out
        assert "max_discrepancy=" in out
        gap = float(out.strip().splitlines()[-1].split("=")[1])
        assert gap <= 1e-10

    def test_long_sequence_both_algorithms(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        model = random_hmm(rng, 8, 20)
        path = tmp_path / "hmm.json"
        save_model(model, path)
        symbols = ",".join(random_hmm_observation(rng, model, 10_000))
        assert main(["hmm-posterior", str(path), "--algorithm", "both", "--obs", symbols]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("fb t=") for line in lines) == 10_000
        assert sum(line.startswith("efb t=") for line in lines) == 10_000
        assert float(lines[-1].split("=")[1]) <= 1e-10

    @pytest.mark.parametrize("n", [8, 32])
    def test_rows_are_the_library_gamma_in_17_digits(self, tmp_path, capsys, n):
        # several output blocks and a remainder, T >= 512: the blocked
        # recursion at N=8 and the plain loop at N=32
        rng = np.random.default_rng(23)
        path = tmp_path / "hmm.json"
        save_model(random_hmm(rng, n, 6, derive=True), path)
        model = load_model(path)
        obs = random_hmm_observation(rng, model, 3 * (TABLE_BLOCK // 8) + 17)
        assert main(["hmm-posterior", str(path), "--algorithm", "both",
                     "--obs", ",".join(obs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        tables = {"fb": forward_backward(model, obs).gamma,
                  "efb": entropic_forward_backward(model, obs).gamma}
        expected = [f"{name} t={t} " + " ".join(format(p, ".17g") for p in row)
                    for name, gamma in tables.items() for t, row in enumerate(gamma)]
        assert lines[:-1] == expected
        assert lines[-1].startswith("max_discrepancy=")
        for name, gamma in tables.items():
            printed = np.array([line.split()[2:] for line in lines
                                if line.startswith(name + " t=")], dtype=float)
            assert np.array_equal(printed.view(np.int64), gamma.view(np.int64))

    def test_posteriors_derived_when_missing(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        model = random_hmm(rng, n_labels=2, m_symbols=2)
        path = tmp_path / "hmm.json"
        save_model(model, path)
        assert main(["hmm-posterior", str(path), "--obs",
                     ",".join(model.alphabet.symbols)]) == 0
        assert "derived posterior columns" in capsys.readouterr().out

    def test_unknown_symbol_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        path = tmp_path / "hmm.json"
        save_model(random_hmm(rng), path)
        assert main(["hmm-posterior", str(path), "--obs", "nope"]) == 2
        assert "unknown symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("derive", [True, False], ids=["posteriors", "no-posteriors"])
    @pytest.mark.parametrize("obs", ["s0,,s1", "s0,s1,"])
    def test_empty_field_is_an_unknown_symbol(self, tmp_path, capsys, obs, derive):
        # every field is one step; none is skipped, and nothing is printed
        path = tmp_path / "hmm.json"
        save_model(random_hmm(np.random.default_rng(19), 2, 2, derive=derive), path)
        assert main(["hmm-posterior", str(path), "--obs", obs]) == 2
        assert capsys.readouterr() == ("", "error: unknown symbol ''\n")

    def test_malformed_model_json_exits_2(self, tmp_path, capsys):
        data = model_to_dict(random_hmm(np.random.default_rng(23), 2, 2))
        data["alphabet"] = [["s0"], ["s1"]]
        path = _write(tmp_path / "hmm.json", json.dumps(data))
        assert main(["hmm-posterior", path, "--obs", "s0"]) == 2
        message = "error: model JSON 'alphabet' must be a list of strings\n"
        assert capsys.readouterr() == ("", message)

    def test_missing_model_file_exits_2(self, tmp_path):
        assert main(["hmm-posterior", str(tmp_path / "gone.json"), "--obs", "x"]) == 2

    def test_a_model_of_another_type_exits_2(self, tmp_path, capsys):
        save_model(random_logreg(np.random.default_rng(29), n_labels=2, t_len=1),
                   tmp_path / "lr.json")
        assert main(["hmm-posterior", str(tmp_path / "lr.json"), "--obs", "x"]) == 2
        assert capsys.readouterr() == ("", "error: hmm-posterior needs an hmm model\n")


class TestErrorPolicy:
    """A package error or an input fault leaves ``main`` as one ``error:`` line:
    exit 3 for a diverged loss, exit 2 for everything else."""

    @staticmethod
    def _raise_from_main(monkeypatch, capsys, error):
        def handler(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_verify", handler)
        code = main(["verify"])
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: boom\n"
        return code

    @pytest.mark.parametrize("error", DualBayesError.__subclasses__(),
                             ids=lambda error: error.__name__)
    def test_package_errors(self, monkeypatch, capsys, error):
        expected = 3 if error is DivergedLoss else 2
        assert self._raise_from_main(monkeypatch, capsys, error) == expected

    @pytest.mark.parametrize("error", [ValueError, OSError, csv.Error],
                             ids=["ValueError", "OSError", "csv.Error"])
    def test_input_faults_exit_2(self, monkeypatch, capsys, error):
        assert self._raise_from_main(monkeypatch, capsys, error) == 2

    def test_oversized_csv_field_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "lr.json"
        save_model(random_logreg(np.random.default_rng(41), n_labels=3, t_len=2), model_path)
        data = _write(tmp_path / "obs.csv", "f0,f1\n1," + "1" * 140_000 + "\n")
        assert main(["predict", str(model_path), data]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = csv.field_size_limit()
        assert captured.err == f"error: field larger than field limit ({limit})\n"


class TestModuleEntryPoint:
    """``python -m dualbayes.cli``, the documented equivalent of the console script."""

    _run_python = staticmethod(run_python)

    @classmethod
    def _run(cls, *args, **env):
        return cls._run_python("-m", "dualbayes.cli", *args, **env)

    def test_verify_smoke_run(self):
        done = self._run("verify", "--cases", "1")
        assert done.returncode == 0
        assert "4/4 suites passed" in done.stdout

    def test_the_package_runs_as_its_cli_module(self):
        # python -m dualbayes, the form the README names beside the console script
        package = self._run_python("-m", "dualbayes", "verify", "--cases", "2")
        module = self._run("verify", "--cases", "2")
        assert (package.returncode, package.stdout) == (module.returncode, module.stdout)
        assert module.returncode == 0

    def test_discriminative_fit_does_not_import_numpy_random(self, tmp_path):
        # numpy.random costs about 6 MB and 15 ms to import; the full-batch
        # trainer draws no random number, and convert's probes are a fixed
        # sequence.  The fit writes the model that convert then reads
        dataset = _separable_csv(tmp_path, per_class=10)
        disc = str(tmp_path / "disc.json")
        script = ("import sys; from dualbayes.cli import main; code = main(sys.argv[1:]); "
                  "print(code, 'numpy.random' in sys.modules)")
        for argv in (["fit", "--discriminative", "--epochs", "2", dataset, "-o", disc],
                     ["convert", disc, "-o", str(tmp_path / "lr.json")]):
            done = self._run_python("-c", script, *argv)
            assert done.stdout.splitlines()[-1] == "0 False", argv

    def test_only_the_table_commands_import_the_formatter(self, tmp_path):
        # the table formatter's module, and the numpy loops it runs, stay out
        # of every command that prints no probability table
        dataset = _separable_csv(tmp_path, per_class=10)
        disc, lr = str(tmp_path / "disc.json"), str(tmp_path / "lr.json")
        script = ("import sys; from dualbayes.cli import main; code = main(sys.argv[1:]); "
                  "print(code, 'dualbayes.format17' in sys.modules)")
        commands = [
            (["fit", "--generative", dataset, "-o", str(tmp_path / "nb.json")], False),
            (["fit", "--discriminative", "--epochs", "2", dataset, "-o", disc], False),
            (["convert", disc, "-o", lr], False),
            (["verify", "--cases", "1"], False),
            (["predict", lr, _write(tmp_path / "obs.csv", "f0\n0.5\n")], True),
        ]
        for argv, imported in commands:
            done = self._run_python("-c", script, *argv)
            assert done.stdout.splitlines()[-1] == f"0 {imported}", argv

    @pytest.mark.parametrize("command, code, message", [
        (["convert", "{dir}/lr.json", "-o", "{dir}/out.json", "--prior", "1e308,1e308"],
         2, "prior: entries sum to inf, not 1"),
        (["fit", "--generative", "--alpha", "inf", "{dir}/data.csv", "-o", "{dir}/out.json"],
         2, "smoothing_alpha must be finite and nonnegative"),
        (["fit", "--generative", "--alpha", "nan", "{dir}/data.csv", "-o", "{dir}/out.json"],
         2, "smoothing_alpha must be finite and nonnegative"),
        (["fit", "--generative", "--alpha", "1e308", "{dir}/data.csv", "-o", "{dir}/out.json"],
         2, "smoothing_alpha is too large: the smoothed totals overflow"),
        (["fit", "--discriminative", "--lr", "inf", "{dir}/real.csv", "-o", "{dir}/out.json"],
         2, "learning_rate must be positive and finite"),
        (["fit", "--discriminative", "--epochs", "10", "{dir}/huge.csv", "-o", "{dir}/out.json"],
         3, "loss became non-finite (nan)"),
        (["fit", "--discriminative", "--epochs", "1", "--lr", "1e308", "{dir}/steep.csv", "-o",
          "{dir}/out.json"], 3, "parameters became non-finite"),
    ], ids=["overflowing-prior", "alpha-inf", "alpha-nan", "alpha-overflowing", "lr-inf",
            "diverging-fit", "overflowing-step"])
    def test_bad_value_prints_one_error_line_and_no_warning(self, tmp_path, command, code,
                                                            message):
        # run outside pytest, whose filters would turn a numpy warning into an exception
        save_model(random_logreg(np.random.default_rng(3), n_labels=2, t_len=2),
                   tmp_path / "lr.json")
        _two_sample_csv(tmp_path)
        _write(tmp_path / "real.csv", "label,f0\na,0.5\nb,-1.0\na,2.0\n")
        _write(tmp_path / "huge.csv", "label,f0\na,1e200\nb,-1e200\na,5e199\nb,-5e199\n")
        _write(tmp_path / "steep.csv", "label,x\na,100\nb,300\na,120\n")
        done = self._run(*(arg.format(dir=tmp_path) for arg in command))
        assert done.returncode == code
        assert done.stderr == f"error: {message}\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("make, key, value, message", [
        (random_discriminative_nb, "prior", {"a": 1},
         "prior: entries must be an array of numbers"),
        (random_logreg, "weights", {"x": 1}, "weights must be an array of numbers"),
        (random_naive_bayes, "emissions", 5, "model JSON 'emissions' must be a list of tables"),
        (random_logreg, "T", "1", "model JSON 'T' must be an integer"),
        (random_logreg, "T", True, "model JSON 'T' must be an integer"),
    ], ids=["prior-object", "weights-object", "emissions-number", "T-string", "T-bool"])
    def test_malformed_model_json_prints_one_error_line(self, tmp_path, make, key, value,
                                                        message):
        data = model_to_dict(make(np.random.default_rng(5), t_len=1))
        data[key] = value
        (tmp_path / "model.json").write_text(json.dumps(data))
        _write(tmp_path / "obs.csv", "f0\n0.5\n")
        done = self._run("predict", str(tmp_path / "model.json"), str(tmp_path / "obs.csv"))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: {message}\n"

    def test_negative_verify_seed_exits_2(self):
        # rejected before any suite runs, in the option's words rather than numpy's
        done = self._run("verify", "--seed", "-1")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: seed must be a nonnegative integer\n"

    def test_cases_zero_exits_2(self):
        done = self._run("verify", "--cases", "0")
        assert done.returncode == 2
        assert done.stdout == ""


def _numbered_rows(calls):
    """A ``lines`` function for ``cli._write_parts`` that records the calls
    this process makes; rows formatted in a child are missing from them."""
    def lines(start, stop):
        calls.append((start, stop))
        return "".join(f"row {i}\n" for i in range(start, stop))
    return lines


class TestOutputParts:
    """``predict`` and ``hmm-posterior`` format a table of at least
    ``_PART_BLOCKS`` blocks per part in up to one part per usable CPU: this
    process writes the first part and forked children the others.  Each case
    is checked against a one-part run, byte for byte, and leaves no child
    behind.  Most cases set ``_PART_BLOCKS`` to 1, so that small tables fork."""

    # rows per block of the 3-label hmm and of the 5-label disc_nb model below
    HMM_ROWS, PREDICT_ROWS = TABLE_BLOCK // 3, TABLE_BLOCK // 5

    @staticmethod
    def _cpus(monkeypatch, cpus, part_blocks=1):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "_PART_BLOCKS", part_blocks)

    @staticmethod
    def _hmm_argv(tmp_path, t_len, algorithm="both", n=3):
        rng = np.random.default_rng(71)
        path = tmp_path / "hmm.json"
        save_model(random_hmm(rng, n, 4, derive=True), path)
        obs = random_hmm_observation(rng, load_model(path), t_len)
        return ["hmm-posterior", str(path), "--algorithm", algorithm, "--obs", ",".join(obs)]

    @staticmethod
    def _predict_argv(tmp_path, rows, n_labels=5):
        rng = np.random.default_rng(73)
        save_model(random_discriminative_nb(rng, n_labels=n_labels, t_len=4),
                   tmp_path / "m.json")
        reals = rng.normal(0.0, 2.0, size=(rows, 4)).tolist()
        obs = _write(tmp_path / "obs.csv",
                     "f0,f1,f2,f3\n" + "".join(",".join(map(repr, row)) + "\n" for row in reals))
        return ["predict", str(tmp_path / "m.json"), obs]

    def test_hmm_posterior(self, tmp_path, capsys, monkeypatch, forks):
        # three whole blocks and a ragged one, so at most 3 parts
        t_len = 3 * self.HMM_ROWS + 100
        argv = self._hmm_argv(tmp_path, t_len)
        outputs, made = [], []
        for cpus in (1, 2, 3, 4):
            self._cpus(monkeypatch, cpus)
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
            made.append(len(forks))
            assert_no_child_left()
        assert outputs[1:] == outputs[:1] * 3
        assert outputs[0].out.count("\n") == 2 * t_len + 1
        assert made == [0, 2, 6, 10]  # two tables, each in min(cpus, 3) parts

    def test_predict_to_stdout_and_to_a_file(self, tmp_path, capsys, monkeypatch, forks):
        rows = 4 * self.PREDICT_ROWS + 37  # four whole blocks and a ragged one
        argv = self._predict_argv(tmp_path, rows)
        outputs = []
        for cpus in (1, 2, 3, 4):
            self._cpus(monkeypatch, cpus)
            out = tmp_path / f"pred{cpus}.csv"
            assert main(argv) == 0
            assert main(argv + ["-o", str(out)]) == 0
            outputs.append((capsys.readouterr(), out.read_bytes()))
            assert_no_child_left()
        assert outputs[1:] == outputs[:1] * 3
        assert outputs[0][1].count(b"\r\n") == rows + 1
        assert len(forks) == 2 * (1 + 2 + 3)

    @pytest.mark.parametrize("count, block, cpus, here", [
        (10, 3, 2, [(0, 3), (3, 5)]),  # rows 0-4 here and 5-9 in a child
        (10, 3, 3, [(0, 3)]),  # rows 0-2 here, 3-5 and 6-9 in children
        (7, 3, 4, [(0, 3)]),  # two whole blocks: two parts
        (5, 3, 4, [(0, 3), (3, 5)]),  # one whole block: one part
        (9, 3, 1, [(0, 3), (3, 6), (6, 9)]),
    ])
    def test_parts_are_contiguous_rows_in_order(self, monkeypatch, count, block, cpus, here):
        self._cpus(monkeypatch, cpus)
        calls, out = [], io.StringIO()
        cli._write_parts(_numbered_rows(calls), count, block, out)
        assert out.getvalue() == "".join(f"row {i}\n" for i in range(count))
        assert calls == here
        assert_no_child_left()

    @pytest.mark.parametrize("floors, extra, parts", [(2, -1, 1), (2, 0, 2), (4, 0, 4),
                                                      (100, 0, 4)])
    def test_a_part_holds_at_least_the_floor(self, monkeypatch, forks, floors, extra,
                                              parts):
        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        count = floors * cli._PART_BLOCKS * 5 + extra
        calls, out = [], io.StringIO()
        cli._write_parts(_numbered_rows(calls), count, 5, out)
        assert out.getvalue() == "".join(f"row {i}\n" for i in range(count))
        assert calls[0][0] == 0 and calls[-1][1] == count // parts
        assert len(forks) == parts - 1
        assert_no_child_left()

    @pytest.mark.parametrize("n, children", [(2, 0), (8, 1), (32, 3)])
    def test_hmm_long_tables_fork_from_n_8_on(self, tmp_path, capsys, monkeypatch, forks,
                                              n, children):
        # T = 10^4 in blocks of TABLE_BLOCK // N rows: 9, 39 and 156 blocks
        # for N = 2, 8 and 32; the kernel's own forked pass is switched off
        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        monkeypatch.setattr(hmm, "usable_cpus", lambda: 1)
        assert main(self._hmm_argv(tmp_path, 10_000, algorithm="fb", n=n)) == 0
        assert capsys.readouterr().out.count("\n") == 10_000
        assert len(forks) == children
        assert_no_child_left()

    def test_a_predict_table_below_the_floor_never_forks(self, tmp_path, capsys,
                                                         monkeypatch):
        # disc-real's predict tables: 4000 rows of 8 labels, 15.6 blocks
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
        monkeypatch.setattr(os, "fork", no_fork)
        assert main(self._predict_argv(tmp_path, 4000, n_labels=8)) == 0
        assert capsys.readouterr().out.count("\r\n") == 4001

    def test_a_failed_child_is_formatted_here(self, monkeypatch, forks):
        # the child of the last part raises part-way; the first child succeeds
        self._cpus(monkeypatch, 3)
        parent, calls = os.getpid(), []
        numbered = _numbered_rows(calls)

        def lines(start, stop):
            if os.getpid() != parent and start == 9:
                raise RuntimeError("formatting failed")
            return numbered(start, stop)

        out = io.StringIO()
        cli._write_parts(lines, 10, 3, out)
        assert out.getvalue() == "".join(f"row {i}\n" for i in range(10))
        assert calls == [(0, 3), (6, 9), (9, 10)]
        assert len(forks) == 2
        assert_no_child_left()

    def test_a_part_without_a_file_is_formatted_here(self, monkeypatch, forks):
        def no_file(*args, **kwargs):
            raise OSError(28, "No space left on device")

        self._cpus(monkeypatch, 3)
        monkeypatch.setattr(core.tempfile, "TemporaryFile", no_file)
        calls, out = [], io.StringIO()
        cli._write_parts(_numbered_rows(calls), 10, 3, out)
        assert out.getvalue() == "".join(f"row {i}\n" for i in range(10))
        assert calls == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert forks == []

    @pytest.mark.parametrize("failing_write", [1, 3], ids=["first-part", "copy"])
    def test_a_failed_write_leaves_no_child_and_no_open_file(self, tmp_path, failing_write):
        # in a fresh interpreter under development mode, where an unclosed
        # file is an error; T = 4 blocks in two parts, and this process
        # writes the first part in two writes before it copies the child's file
        script = textwrap.dedent(f"""
            import os, sys
            from dualbayes import cli, core
            cli.usable_cpus, cli._PART_BLOCKS = lambda: 2, 1
            forks, fork = [], os.fork
            def counted():
                pid = fork()
                if pid:
                    forks.append(pid)
                return pid
            os.fork = counted
            class Full:
                writes = 0
                def write(self, text):
                    Full.writes += 1
                    if Full.writes == {failing_write}:
                        raise OSError(28, "No space left on device")
            files = sorted(os.listdir("/dev/fd"))
            sys.stdout = Full()
            code = cli.main(sys.argv[1:])
            sys.stdout = sys.__stdout__
            try:
                os.waitpid(-1, os.WNOHANG)
                left = "a child left"
            except ChildProcessError:
                left = "no child left"
            print(code, len(forks), left, sorted(os.listdir("/dev/fd")) == files)
        """)
        argv = self._hmm_argv(tmp_path, 4 * self.HMM_ROWS, algorithm="fb")
        done = TestModuleEntryPoint._run_python("-X", "dev", "-W", "error::ResourceWarning",
                                                "-c", script, *argv)
        assert done.stderr == "error: [Errno 28] No space left on device\n"
        assert done.stdout == "2 1 no child left True\n"

    @pytest.mark.parametrize("command", ["predict", "hmm-posterior"])
    def test_a_reader_that_closed_the_pipe_gets_exit_141_and_no_error_line(self, tmp_path,
                                                                           command):
        # in a fresh interpreter under development mode, with stdout a pipe
        # whose reader has gone, as `| head` leaves it; four blocks in two
        # parts, so a forked child formats the second part
        argv = (self._predict_argv(tmp_path, 4 * self.PREDICT_ROWS) if command == "predict"
                else self._hmm_argv(tmp_path, 4 * self.HMM_ROWS))
        script = textwrap.dedent(f"""
            import os, sys
            sys.path.insert(0, {os.path.dirname(__file__)!r})
            from dualbayes import cli
            from helpers import assert_no_child_left
            cli.usable_cpus, cli._PART_BLOCKS = lambda: 2, 1
            read, write = os.pipe()
            os.close(read)
            os.dup2(write, sys.stdout.fileno())
            os.close(write)
            code = cli.main(sys.argv[1:])
            assert_no_child_left()
            sys.exit(code)
        """)
        done = run_python("-X", "dev", "-W", "error::ResourceWarning", "-c", script, *argv)
        assert (done.returncode, done.stderr) == (141, "")

    def test_the_fork_warning_of_python_3_12_does_not_escape(self, tmp_path, capsys,
                                                             monkeypatch, forks):
        # Python 3.12+ warns, from the frame that called fork, when a process
        # with threads forks; numpy's BLAS threads make that every process
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        with pytest.warns(DeprecationWarning, match=r"use of fork\(\) may lead to deadlocks"):
            if os.fork() == 0:
                os._exit(0)
        os.waitpid(forks.pop(), 0)

        argv = self._hmm_argv(tmp_path, 2 * self.HMM_ROWS)
        self._cpus(monkeypatch, 1)
        assert main(argv) == 0
        expected = capsys.readouterr()
        self._cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr() == expected
        assert len(forks) == 2
        assert_no_child_left()

        # verify forks one child per usable CPU, here two
        monkeypatch.setattr(dualbayes.verify, "usable_cpus", lambda: 1)
        assert main(["verify", "--cases", "2"]) == 0
        expected = capsys.readouterr()
        monkeypatch.setattr(dualbayes.verify, "usable_cpus", lambda: 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--cases", "2"]) == 0
        assert capsys.readouterr() == expected
        assert len(forks) == 2 + 1 + 2
        assert_no_child_left()


def test_every_readme_cli_command_parses():
    # a README example that names a deleted option would otherwise go stale unseen
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("dualbayes ")]
    assert len(commands) >= 9
    parser = cli._build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command is refused: {line}")
