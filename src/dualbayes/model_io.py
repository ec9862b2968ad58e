"""JSON serialization for every model type.

Floats are emitted with Python's shortest round-trip decimal (17
significant digits where needed), so a dump/load cycle reproduces every
parameter, and therefore every posterior, bit for bit.
"""

from __future__ import annotations

import json

from .core import LabelSpace, ObservationAlphabet, ProbabilityVector
from .hmm import HmmModel
from .logreg import LogisticRegressionModel
from .naive_bayes import DiscriminativeNBModel, NaiveBayesModel


def model_to_dict(model) -> dict:
    """Plain-JSON representation of any supported model."""
    if isinstance(model, NaiveBayesModel):
        return {
            "type": "naive_bayes",
            "labels": list(model.labels.names),
            "T": model.n_positions,
            "alphabets": [list(ab.symbols) for ab in model.alphabets],
            "prior": model.prior.entries.tolist(),
            "emissions": [table.tolist() for table in model.emissions],
        }
    if isinstance(model, DiscriminativeNBModel):
        return {
            "type": "disc_nb",
            "labels": list(model.labels.names),
            "T": model.n_positions,
            "prior": model.prior.entries.tolist(),
            "params": {
                "a": model.slopes.tolist(),
                "c": model.intercepts.tolist(),
            },
        }
    if isinstance(model, LogisticRegressionModel):
        return {
            "type": "logreg",
            "labels": list(model.labels.names),
            "T": model.n_positions,
            "weights": model.weights.tolist(),
            "biases": model.biases.tolist(),
        }
    if isinstance(model, HmmModel):
        data = {
            "type": "hmm",
            "labels": list(model.labels.names),
            "alphabet": list(model.alphabet.symbols),
            "prior": model.prior.entries.tolist(),
            "transitions": model.transitions.tolist(),
        }
        if model.emissions is not None:
            data["emissions"] = model.emissions.tolist()
        if model.posteriors is not None:
            data["posteriors"] = model.posteriors.tolist()
        return data
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _names(value, key: str) -> tuple[str, ...]:
    # tuple() would also accept a string, one name per character
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError(f"model JSON {key} must be a list of strings")
    return tuple(value)


def model_from_dict(data: dict):
    """Rebuild a model from :func:`model_to_dict` output.

    Raises ``ValueError`` on a missing key, an unknown type tag, names
    that are not a list of strings, ``params`` that are not an object,
    ``emissions`` that are not a list, or a stored ``T`` that is not an
    integer or contradicts the parameter shapes; invariant violations
    surface as the constructors' own errors.
    """
    try:
        kind = data["type"]
        if kind == "naive_bayes":
            alphabets, emissions = data["alphabets"], data["emissions"]
            if not isinstance(alphabets, list):
                raise ValueError("model JSON 'alphabets' must be a list of lists of strings")
            if not isinstance(emissions, list):
                raise ValueError("model JSON 'emissions' must be a list of tables")
            model = NaiveBayesModel(
                labels=LabelSpace(_names(data["labels"], "'labels'")),
                alphabets=tuple(ObservationAlphabet(_names(symbols, "'alphabets' entry"))
                                for symbols in alphabets),
                prior=ProbabilityVector(data["prior"]),
                emissions=emissions,
            )
        elif kind == "disc_nb":
            params = data["params"]
            if not isinstance(params, dict):
                raise ValueError("model JSON 'params' must be an object")
            model = DiscriminativeNBModel(
                labels=LabelSpace(_names(data["labels"], "'labels'")),
                prior=ProbabilityVector(data["prior"]),
                slopes=params["a"],
                intercepts=params["c"],
            )
        elif kind == "logreg":
            model = LogisticRegressionModel(
                labels=LabelSpace(_names(data["labels"], "'labels'")),
                weights=data["weights"],
                biases=data["biases"],
            )
        elif kind == "hmm":
            return HmmModel(
                labels=LabelSpace(_names(data["labels"], "'labels'")),
                alphabet=ObservationAlphabet(_names(data["alphabet"], "'alphabet'")),
                prior=ProbabilityVector(data["prior"]),
                transitions=data["transitions"],
                emissions=data.get("emissions"),
                posteriors=data.get("posteriors"),
            )
        else:
            raise ValueError(f"unknown model type {kind!r}")
        stored_t = data["T"]
    except KeyError as exc:
        raise ValueError(f"model JSON is missing key {exc}") from None
    if type(stored_t) is not int:  # a bool is not a count
        raise ValueError("model JSON 'T' must be an integer")
    if model.n_positions != stored_t:
        raise ValueError(
            f"stored T={stored_t} contradicts parameter shapes (T={model.n_positions})"
        )
    return model


def dumps_model(model) -> str:
    return json.dumps(model_to_dict(model), indent=2)


def loads_model(text: str):
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("model JSON must be an object")
    return model_from_dict(data)


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_model(model))
        handle.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        return loads_model(handle.read())
