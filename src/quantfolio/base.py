"""Lightweight estimator base: fit/predict contract with get_params/set_params."""

from __future__ import annotations

import copy
import dataclasses

from .analytics import Portfolio, predict


class BaseEstimator:
    """Parameter introspection in the fit/predict idiom.

    Constructor arguments are treated as hyper-parameters: they are stored
    verbatim and never mutated by ``fit``. Fitted state uses a trailing
    underscore (``weights_``).

    Estimators declare their hyper-parameters once, as the fields of a
    ``@dataclass(repr=False, eq=False)`` subclass, in constructor order: the
    generated ``__init__`` stores each argument under its own name, and this
    class keeps the ``repr``, identity equality and hashing.
    """

    @classmethod
    def _param_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def get_params(self, deep: bool = True) -> dict:
        out = {}
        for name in self._param_names():
            value = getattr(self, name)
            out[name] = value
            if deep and isinstance(value, BaseEstimator):
                for sub, sub_value in value.get_params(deep=True).items():
                    out[f"{name}__{sub}"] = sub_value
        return out

    def set_params(self, **params):
        valid = set(self._param_names())
        nested: dict[str, dict] = {}
        for key, value in params.items():
            if "__" in key:
                head, tail = key.split("__", 1)
                nested.setdefault(head, {})[tail] = value
            elif key in valid:
                setattr(self, key, value)
            else:
                raise ValueError(f"unknown parameter {key!r} for {type(self).__name__}")
        for head, sub_params in nested.items():
            getattr(self, head).set_params(**sub_params)
        return self

    def predict(self, X) -> Portfolio:
        """Realized returns of the fitted weights on X; assets are checked
        against the fitted prior's when there is one."""
        prior = getattr(self, "prior_", None)
        return predict(self.weights_, X, assets=prior.assets if prior is not None else (),
                       name=type(self).__name__)

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params(deep=False).items())
        return f"{type(self).__name__}({params})"


def clone(estimator):
    """Fresh unfitted copy with the same hyper-parameters."""
    params = {k: copy.deepcopy(v) for k, v in estimator.get_params(deep=False).items()}
    return type(estimator)(**params)
