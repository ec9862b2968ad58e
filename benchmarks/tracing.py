"""Per-layer spans for the traced benchmark run, recorded from outside the library.

:func:`install` replaces each function listed below with a recording
wrapper, in every ``dualbayes`` module namespace that holds it, so the
caller's own lookup (``dualbayes.cli``, ``dualbayes.verify``,
``dualbayes.train`` and the ``core`` names imported into ``naive_bayes``,
``hmm`` and ``logreg``) reaches the wrapper.  Nothing under ``src/`` changes.

Each call of a ``SPANS`` function records a span ``[name, start, end,
parent]``.  The hot ``core`` functions run about twenty times per row, so
they only add to a count and a total time.  Self time is a call's duration
minus the time its traced callees cover.
"""

import functools
import sys
import time

# (metric name, defining module, attribute); the name's first part is the layer
SPANS = [
    ("cli.main", "cli", "main"),
    ("model_io.load_model", "model_io", "load_model"),
    ("model_io.save_model", "model_io", "save_model"),
    ("naive_bayes.nb_fit_mle", "naive_bayes", "nb_fit_mle"),
    ("naive_bayes.nb_sufficient_statistics", "naive_bayes", "nb_sufficient_statistics"),
    ("naive_bayes.nb_to_discriminative", "naive_bayes", "nb_to_discriminative"),
    ("naive_bayes.nb_generative_posterior", "naive_bayes", "nb_generative_posterior"),
    ("naive_bayes.nb_discriminative_posterior", "naive_bayes", "nb_discriminative_posterior"),
    ("naive_bayes.disc_nb_posterior", "naive_bayes", "disc_nb_posterior"),
    ("naive_bayes.disc_nb_log_posterior_batch", "naive_bayes", "disc_nb_log_posterior_batch"),
    ("logreg.lr_posterior", "logreg", "lr_posterior"),
    ("logreg.lr_log_posterior_batch", "logreg", "lr_log_posterior_batch"),
    ("logreg.nb_to_lr", "logreg", "nb_to_lr"),
    ("train.fit_discriminative", "train", "fit_discriminative"),
    ("train._log_posterior_matrix", "naive_bayes", "_log_posterior_matrix"),
    ("hmm.forward_backward", "hmm", "forward_backward"),
    ("hmm.entropic_forward_backward", "hmm", "entropic_forward_backward"),
    ("hmm._entropic_recursion", "hmm", "_entropic_recursion"),
    ("hmm.derive_hmm_posteriors", "hmm", "derive_hmm_posteriors"),
    ("oracle.joint_enumeration_nb", "oracle", "joint_enumeration_nb"),
    ("oracle.joint_enumeration_hmm", "oracle", "joint_enumeration_hmm"),
    ("verify.run_all_suites", "verify", "run_all_suites"),
    ("verify.nb_agreement_suite", "verify", "nb_agreement_suite"),
    ("verify.logreg_equivalence_suite", "verify", "logreg_equivalence_suite"),
    ("verify.fb_efb_suite", "verify", "fb_efb_suite"),
    ("verify.fb_enumeration_suite", "verify", "fb_enumeration_suite"),
]
COUNTED = [
    ("core.normalize_log", "core", "normalize_log"),
    ("core.logsumexp", "core", "logsumexp"),
]
# Replaced in these namespaces only.  The kernel is shared with naive_bayes,
# but this metric times the trainer's calls.
ONLY_IN = {"train._log_posterior_matrix": ("train",)}

# Work units per call, for the per-step and per-epoch rates.
UNITS = {
    "hmm.forward_backward": lambda args, kwargs: len(args[1]),
    "hmm.entropic_forward_backward": lambda args, kwargs: len(args[1]),
    "train.fit_discriminative": lambda args, kwargs: args[3].epochs,
}


class Recorder:
    """Holds spans and per-function statistics in memory until the process ends."""

    def __init__(self):
        self.spans = []
        self.stats = {}
        self._stack = []  # one [covered_by_callees, enclosing span index] per open call

    def wrap(self, name, func, keep_spans):
        stat = self.stats.setdefault(
            name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0, "units": 0})
        units = UNITS.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            index = parent
            if keep_spans:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                stat["failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat["calls"] += 1
                stat["s"] += duration
                stat["self_s"] += duration - frame[0]
                if units is not None:
                    stat["units"] += units(args, kwargs)
                if keep_spans:
                    spans[index][1:3] = [start, end]

        return traced


def install() -> Recorder:
    """Wrap every listed function of the already imported ``dualbayes`` modules."""
    recorder = Recorder()
    modules = [module for name, module in sys.modules.items()
               if name == "dualbayes" or name.startswith("dualbayes.")]
    for table, keep_spans in ((SPANS, True), (COUNTED, False)):
        for name, home, attribute in table:
            original = getattr(sys.modules[f"dualbayes.{home}"], attribute)
            traced = recorder.wrap(name, original, keep_spans)
            only = ONLY_IN.get(name)
            for module in modules:
                if only and module.__name__.rsplit(".", 1)[-1] not in only:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
    # constructions are counted on the class, which every namespace shares
    vector = sys.modules["dualbayes.core"].ProbabilityVector
    vector.__post_init__ = recorder.wrap(
        "core.ProbabilityVector", vector.__post_init__, keep_spans=False)
    return recorder
