"""Workload inputs and output checks for the dualbayes CLI benchmark.

Every input is drawn with plain numpy from the workload seed; nothing here
imports ``dualbayes``, so a change to the library (its ``verify.random_*``
generators included) cannot change what the benchmark feeds it.  The
program only ever sees the CSV, JSON and ``--obs`` files written here.

The checks are the benchmark's own plain references.  Each returns a list
of ``(op_index, reason)`` pairs, one per invocation whose output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Agreement tolerance between two routes; mirrors ``dualbayes.core.EQUALITY_TOL``.
EQUALITY_TOL = 1e-10
#: Row-sum tolerance for a printed probability vector; mirrors ``SIMPLEX_TOL``.
SIMPLEX_TOL = 1e-12
#: Rows of each predict output compared with a direct reference posterior.
SAMPLED_ROWS = 200

FULL = {
    "nb_fit_rows": 20_000, "nb_predict_rows": 10_000, "nb_labels": 8,
    "nb_positions": 20, "nb_symbols": 10,
    "disc_fit_rows": 10_000, "disc_predict_rows": 4_000, "disc_labels": 8,
    "disc_positions": 20, "disc_epochs": 100,
    "hmm_steps": 10_000, "hmm_labels": (2, 8, 32), "hmm_symbols": 20,
    "verify_seeds": 3, "verify_cases": None,
}

# Tiny sizes for the smoke test: every workload in a few seconds.
SMOKE = {
    "nb_fit_rows": 300, "nb_predict_rows": 100, "nb_labels": 3,
    "nb_positions": 8, "nb_symbols": 4,
    "disc_fit_rows": 200, "disc_predict_rows": 50, "disc_labels": 3,
    "disc_positions": 4, "disc_epochs": 5,
    "hmm_steps": 40, "hmm_labels": (2, 3), "hmm_symbols": 4,
    "verify_seeds": 1, "verify_cases": 2,
}


@dataclass
class Op:
    """One CLI invocation of a workload's command sequence."""

    name: str
    argv: list[str]
    stdout: Path
    rows: int = 0
    steps: int = 0


@dataclass
class Workload:
    """Inputs of one workload, its command sequence and its output check."""

    ops: list[Op]
    check: object
    state: dict = field(default_factory=dict)


def _simplex(rng, n, floor=0.05):
    weights = rng.uniform(floor, 1.0, size=n)
    return weights / weights.sum()


def _stochastic(rng, rows, cols, floor=0.05):
    weights = rng.uniform(floor, 1.0, size=(rows, cols))
    return weights / weights.sum(axis=1, keepdims=True)


def _categorical(rng, cdf):
    """One draw per row of ``cdf`` (last axis cumulative probabilities)."""
    u = rng.random(cdf.shape[:-1] + (1,))
    return np.minimum((u > cdf).sum(axis=-1), cdf.shape[-1] - 1)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("\n".join(",".join(row) for row in rows) + "\n")


def _read_table(path, labels):
    """Parse a predict output into its probability columns and argmax names."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    n = len(labels)
    if not rows or rows[0] != [f"p_{name}" for name in labels] + ["argmax", "tie"]:
        raise ValueError("predict output header is not one column per label, argmax, tie")
    probs = np.array([[float(v) for v in row[:n]] for row in rows[1:]])
    return probs, [row[n] for row in rows[1:]]


def _read_tables(ops, results, labels, indices, bad):
    """The probability tables of the predict ops that exited 0 with well-formed output.

    Appends the reason for each malformed table to ``bad``: a wrong row
    count, a row off the simplex, or an argmax column that disagrees.
    """
    tables = {}
    for k in indices:
        if results[k].rc != 0:
            continue
        try:
            probs, argmax = _read_table(ops[k].stdout, labels)
        except (ValueError, IndexError) as exc:
            bad.append((k, str(exc)))
            continue
        if probs.shape != (ops[k].rows, len(labels)):
            bad.append((k, f"table has shape {probs.shape}, expected {(ops[k].rows, len(labels))}"))
        elif np.any(probs < 0.0) or float(np.abs(probs.sum(axis=1) - 1.0).max()) > SIMPLEX_TOL:
            bad.append((k, "a row is off the simplex"))
        elif [labels[i] for i in probs.argmax(axis=1)] != argmax:
            bad.append((k, "argmax column disagrees with the probabilities"))
        else:
            tables[k] = probs
    return tables


def _gap(a, b):
    return float(np.abs(a - b).max())


# ---------------------------------------------------------------- nb-symbolic

def nb_symbolic(rng, work: Path, sizes) -> Workload:
    """``fit --generative`` on symbols, then ``predict`` on both NB routes."""
    n, t_len, m = sizes["nb_labels"], sizes["nb_positions"], sizes["nb_symbols"]
    n_fit, n_pred = sizes["nb_fit_rows"], sizes["nb_predict_rows"]
    prior = _simplex(rng, n, floor=0.5)
    cdf = np.cumsum(np.stack([_stochastic(rng, n, m) for _ in range(t_len)]), axis=-1)
    # draw a tenth more rows than needed, then keep the first distinct ones
    total = n_fit + n_pred
    labels = rng.choice(n, size=total + total // 10 + 10, p=prior)
    codes = _categorical(rng, cdf[np.arange(t_len)[None, :], labels[:, None]])
    _, first = np.unique(codes, axis=0, return_index=True)
    keep = np.sort(first)[:total]
    if keep.size < total:
        raise RuntimeError("could not draw enough distinct rows")
    codes, labels = codes[keep], labels[keep]
    # the fit must see every label and every symbol, since it infers both spaces
    cover = max(n, m)
    labels[:cover] = np.arange(cover) % n
    codes[:cover] = (np.arange(cover) % m)[:, None]
    if np.unique(codes, axis=0).shape[0] != total:
        raise RuntimeError("covering rows collided with drawn rows")

    names = [f"c{i}" for i in range(n)]
    symbols = np.array([f"v{k}" for k in range(m)])
    header = [f"x{t}" for t in range(t_len)]
    text = symbols[codes]
    _write_csv(work / "nb_train.csv", ["label"] + header,
               ([names[i]] + list(row) for i, row in zip(labels[:n_fit], text[:n_fit])))
    _write_csv(work / "nb_obs.csv", header, (list(row) for row in text[n_fit:]))

    model = work / "nb.json"
    ops = [
        Op("fit", ["fit", "--generative", "--alpha", "1", str(work / "nb_train.csv"),
                   "-o", str(model)], work / "nb_fit.out"),
        Op("predict-generative", ["predict", str(model), str(work / "nb_obs.csv")],
           work / "nb_gen.out", rows=n_pred),
        Op("predict-columns", ["predict", "--route", "discriminative", str(model),
                               str(work / "nb_obs.csv")], work / "nb_cols.out", rows=n_pred),
    ]
    state = {"labels": labels[:n_fit], "fit_codes": codes[:n_fit], "obs": codes[n_fit:],
             "names": names, "m": m, "model": model,
             "sample": rng.choice(n_pred, size=min(SAMPLED_ROWS, n_pred), replace=False)}
    return Workload(ops, check_nb_symbolic, state)


def _fitted_nb(state):
    """The fitted model's parameters re-indexed to the benchmark's codes."""
    with open(state["model"], encoding="utf-8") as handle:
        data = json.load(handle)
    order = [data["labels"].index(name) for name in state["names"]]
    prior = np.array(data["prior"])[order]
    emissions = []
    for t, alphabet in enumerate(data["alphabets"]):
        cols = [alphabet.index(f"v{k}") for k in range(state["m"])]
        emissions.append(np.array(data["emissions"][t])[order][:, cols])
    return prior, np.stack(emissions)


def check_nb_symbolic(state, ops, results):
    if results[0].rc != 0:
        return []  # the model file is removed before each repetition, so the predicts failed too
    bad = []
    n, m = len(state["names"]), state["m"]
    labels, codes = state["labels"], state["fit_codes"]
    counts = np.bincount(labels, minlength=n)
    printed = dict(re.findall(r"^label=(\S+) count=(\d+)$", ops[0].stdout.read_text(), re.M))
    prior, emissions = _fitted_nb(state)
    pair = np.zeros((codes.shape[1], n, m))
    np.add.at(pair, (np.arange(codes.shape[1])[None, :], labels[:, None], codes), 1.0)
    if printed != {name: str(int(c)) for name, c in zip(state["names"], counts)}:
        bad.append((0, "printed label counts differ from the data"))
    elif (_gap(prior, (counts + 1.0) / (labels.size + n)) > SIMPLEX_TOL
          or _gap(emissions, (pair + 1.0) / (counts[None, :, None] + m)) > SIMPLEX_TOL):
        bad.append((0, "fitted parameters differ from the smoothed counts"))

    tables = _read_tables(ops, results, state["names"], (1, 2), bad)
    if 1 in tables:
        sample = state["sample"]
        obs = state["obs"][sample]
        joint = prior[None, :] * np.prod(
            emissions[np.arange(obs.shape[1])[None, :], :, obs], axis=1)
        reference = joint / joint.sum(axis=1, keepdims=True)
        if _gap(tables[1][sample], reference) > EQUALITY_TOL:
            bad.append((1, "generative route differs from the prior x emission product"))
    if 1 in tables and 2 in tables and _gap(tables[1], tables[2]) > EQUALITY_TOL:
        bad.append((2, "posterior-column route differs from the generative route"))
    return bad


# ------------------------------------------------------------------ disc-real

def disc_real(rng, work: Path, sizes) -> Workload:
    """``fit --discriminative``, ``convert`` to logreg, ``predict`` with both."""
    n, t_len = sizes["disc_labels"], sizes["disc_positions"]
    n_fit, n_pred = sizes["disc_fit_rows"], sizes["disc_predict_rows"]
    prior = _simplex(rng, n, floor=0.5)
    means = rng.normal(0.0, 1.0, size=(n, t_len))
    labels = rng.choice(n, size=n_fit + n_pred, p=prior)
    labels[:n] = np.arange(n)
    features = means[labels] + rng.normal(0.0, 1.0, size=(labels.size, t_len))

    names = [f"c{i}" for i in range(n)]
    header = [f"x{t}" for t in range(t_len)]
    text = [[repr(float(v)) for v in row] for row in features]
    _write_csv(work / "disc_train.csv", ["label"] + header,
               ([names[i]] + row for i, row in zip(labels[:n_fit], text[:n_fit])))
    _write_csv(work / "disc_obs.csv", header, text[n_fit:])

    disc, lr = work / "disc.json", work / "lr.json"
    obs = str(work / "disc_obs.csv")
    ops = [
        Op("fit", ["fit", "--discriminative", "--epochs", str(sizes["disc_epochs"]),
                   str(work / "disc_train.csv"), "-o", str(disc)], work / "disc_fit.out"),
        Op("convert", ["convert", str(disc), "-o", str(lr)], work / "disc_convert.out"),
        Op("predict-discnb", ["predict", str(disc), obs], work / "disc_pred.out", rows=n_pred),
        Op("predict-logreg", ["predict", str(lr), obs], work / "lr_pred.out", rows=n_pred),
    ]
    state = {"names": names, "obs": features[n_fit:], "model": disc,
             "sample": rng.choice(n_pred, size=min(SAMPLED_ROWS, n_pred), replace=False)}
    return Workload(ops, check_disc_real, state)


def _disc_reference(state, rows):
    """Softmax columns combined as prior^(1-T) * prod_t L[t], renormalized."""
    with open(state["model"], encoding="utf-8") as handle:
        data = json.load(handle)
    order = [data["labels"].index(name) for name in state["names"]]
    a = np.array(data["params"]["a"])[order]
    c = np.array(data["params"]["c"])[order]
    log_prior = np.log(np.array(data["prior"])[order])
    y = state["obs"][rows]
    logits = y[:, :, None] * a.T[None] + c.T[None]
    columns = np.exp(logits - logits.max(axis=2, keepdims=True))
    columns /= columns.sum(axis=2, keepdims=True)
    score = (1 - a.shape[1]) * log_prior + np.log(columns).sum(axis=1)
    weights = np.exp(score - score.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


def check_disc_real(state, ops, results):
    bad = []
    if results[0].rc == 0:
        try:
            curve = json.loads(ops[0].stdout.read_text().splitlines()[-1])["loss_curve"]
        except (ValueError, KeyError, IndexError):
            curve = []
        if not curve or not all(map(math.isfinite, curve)) or not curve[-1] < curve[0]:
            bad.append((0, "loss curve missing, non-finite or not decreasing"))
    if results[1].rc == 0:
        found = re.search(r"max_probe_discrepancy=(\S+)", ops[1].stdout.read_text())
        if not found or not float(found.group(1)) <= EQUALITY_TOL:
            bad.append((1, "convert probe discrepancy missing or above tolerance"))

    tables = _read_tables(ops, results, state["names"], (2, 3), bad)
    if 2 in tables:
        sample = state["sample"]
        if _gap(tables[2][sample], _disc_reference(state, sample)) > EQUALITY_TOL:
            bad.append((2, "disc_nb posteriors differ from the softmax-column reference"))
    if 2 in tables and 3 in tables and _gap(tables[2], tables[3]) > EQUALITY_TOL:
        bad.append((3, "logreg posteriors differ from the disc_nb posteriors"))
    return bad


# ------------------------------------------------------------------- hmm-long

def hmm_long(rng, work: Path, sizes) -> Workload:
    """``hmm-posterior`` with fb and with efb on one long sequence per label count."""
    t_len, m = sizes["hmm_steps"], sizes["hmm_symbols"]
    ops, references = [], []
    for n in sizes["hmm_labels"]:
        prior = _simplex(rng, n)
        transitions = _stochastic(rng, n, n)
        emissions = _stochastic(rng, n, m)
        path = np.empty(t_len, dtype=int)
        path[0] = _categorical(rng, np.cumsum(prior))
        trans_cdf, emis_cdf = np.cumsum(transitions, axis=1), np.cumsum(emissions, axis=1)
        for t in range(1, t_len):
            path[t] = _categorical(rng, trans_cdf[path[t - 1]])
        obs = _categorical(rng, emis_cdf[path])
        model = work / f"hmm{n}.json"
        model.write_text(json.dumps({
            "type": "hmm", "labels": [f"h{i}" for i in range(n)],
            "alphabet": [f"o{k}" for k in range(m)], "prior": prior.tolist(),
            "transitions": transitions.tolist(), "emissions": emissions.tolist(),
        }))
        text = ",".join(f"o{k}" for k in obs)
        for algorithm in ("fb", "efb"):
            ops.append(Op(f"{algorithm}-n{n}",
                          ["hmm-posterior", str(model), "--obs", text, "--algorithm", algorithm],
                          work / f"hmm{n}_{algorithm}.out", steps=t_len))
        references.append(scaled_forward_backward(prior, transitions, emissions, obs))
    return Workload(ops, check_hmm_long, {"references": references})


def scaled_forward_backward(prior, transitions, emissions, obs):
    """Rabiner-scaled forward-backward: per-step normalized, never leaves [0, 1]."""
    t_len, n = len(obs), prior.size
    alpha, beta = np.empty((t_len, n)), np.ones((t_len, n))
    scale = np.empty(t_len)
    a = prior * emissions[:, obs[0]]
    for t in range(t_len):
        if t:
            a = (alpha[t - 1] @ transitions) * emissions[:, obs[t]]
        scale[t] = a.sum()
        alpha[t] = a / scale[t]
    for t in range(t_len - 2, -1, -1):
        beta[t] = transitions @ (emissions[:, obs[t + 1]] * beta[t + 1]) / scale[t + 1]
    gamma = alpha * beta
    return gamma / gamma.sum(axis=1, keepdims=True)


def read_gamma(path, name):
    rows = [line.split()[2:] for line in path.read_text().splitlines()
            if line.startswith(name + " t=")]
    return np.array(rows, dtype=float)


def gamma_problem(gamma, reference):
    """Why a printed gamma is wrong against its reference, or None."""
    if gamma.shape != reference.shape:
        return f"gamma has shape {gamma.shape}, expected {reference.shape}"
    if np.any(gamma < 0.0) or float(np.abs(gamma.sum(axis=1) - 1.0).max()) > SIMPLEX_TOL:
        return "a gamma row is off the simplex"
    if _gap(gamma, reference) > EQUALITY_TOL:
        return f"gamma differs from the reference by {_gap(gamma, reference):.3e}"
    return None


def check_hmm_long(state, ops, results):
    """Each gamma against the scaled reference; fb against efb where both succeed."""
    bad, gammas = [], {}
    for k, op in enumerate(ops):
        if results[k].rc != 0:
            continue
        algorithm = op.name.split("-")[0]
        gammas[k] = read_gamma(op.stdout, algorithm)
        problem = gamma_problem(gammas[k], state["references"][k // 2])
        if problem:
            bad.append((k, f"{algorithm}: {problem}"))
    for fb in range(0, len(ops), 2):
        if fb in gammas and fb + 1 in gammas and gammas[fb].shape == gammas[fb + 1].shape \
                and _gap(gammas[fb], gammas[fb + 1]) > EQUALITY_TOL:
            bad.append((fb, "fb and efb disagree"))
    return bad


# --------------------------------------------------------------- verify-sweep

def verify_sweep(rng, work: Path, sizes) -> Workload:
    """``verify`` on consecutive seeds derived from the workload seed."""
    first = int(rng.integers(0, 1_000_000))
    extra = [] if sizes["verify_cases"] is None else ["--cases", str(sizes["verify_cases"])]
    ops = [Op(f"verify-{s}", ["verify", "--seed", str(s)] + extra, work / f"verify{s}.out")
           for s in range(first, first + sizes["verify_seeds"])]
    return Workload(ops, check_verify_sweep)


def check_verify_sweep(state, ops, results):
    return [(k, "verify did not report 4/4 suites passed") for k, op in enumerate(ops)
            if results[k].rc == 0
            and op.stdout.read_text().splitlines()[-1:] != ["4/4 suites passed"]]


def build(name, seed, work: Path, smoke=False) -> Workload:
    """Draw the inputs of workload ``name`` into ``work``."""
    builder = {"nb-symbolic": nb_symbolic, "disc-real": disc_real,
               "hmm-long": hmm_long, "verify-sweep": verify_sweep}[name]
    return builder(np.random.default_rng([seed, WORKLOADS.index(name)]), work,
                   SMOKE if smoke else FULL)


WORKLOADS = ("nb-symbolic", "disc-real", "hmm-long", "verify-sweep")
