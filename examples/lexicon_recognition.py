#!/usr/bin/env python3
"""Quickstart for the lexicon-scale recognition tier.

RF-IDraw's end product is word recognition (paper §8.3, fig15), and the
lexicon tier (:mod:`repro.lexicon`) scales it ~100× past the embedded
corpus: a deterministic 100k-word frequency-ranked lexicon, a trie +
shape-feature index that prunes it to a ≤256-candidate shortlist, and a
batched banded-DTW kernel that scores the whole shortlist in one numpy
sweep. Three API layers, from lowest to highest:

1. **The batched kernel** — ``dtw_distance_many(query, templates,
   band)`` is the vectorized twin of the scalar ``dtw_distance`` spec
   (identical to ≤1e-9, with per-template early-abandon)::

       distances = dtw_distance_many(query, template_stack, band=16)

2. **The indexed recogniser** — ``LexiconRecognizer`` swaps the corpus
   recogniser's template matrix for the pruned index and answers the
   same ``recognize``/``classify`` calls as ``WordRecognizer`` (which
   keeps scoring the embedded corpus, so every figure is unchanged)::

       recognizer = LexiconRecognizer(default_lexicon(100_000))
       result = recognizer.recognize(trajectory)   # word + work counters

3. **Recognition at finalize** — hand any stream/serve tier a
   recogniser (or a picklable :class:`~repro.lexicon.RecognizerFactory`
   for sharded workers) and finalized trajectories classify themselves;
   results ride ``SessionFinalized.recognition`` and work counters
   merge through ``ManagerStats``.

Run it with::

    python examples/lexicon_recognition.py

(the first run composes the 100k lexicon from corpus character
statistics — deterministic, no downloads — which takes a few seconds).
"""

from repro.experiments.scenarios import ScenarioConfig, simulate_word
from repro.handwriting.generator import HandwritingGenerator
from repro.lexicon import LexiconIndex, LexiconRecognizer, default_lexicon


def main() -> None:
    # ------------------------------------------------------------------
    # The lexicon: corpus words first, statistical pseudo-words after.
    # ------------------------------------------------------------------
    lexicon = default_lexicon(100_000)
    print(
        f"lexicon: {len(lexicon):,} words, "
        f"top ranks {lexicon.words[:6]} …, "
        f"tail {lexicon.words[-3:]}"
    )

    index = LexiconIndex(lexicon)
    print(
        f"trie: {index.trie.count('th'):,} words under 'th', "
        f"completions {index.trie.complete('thin', limit=4)}"
    )

    # ------------------------------------------------------------------
    # Classify a clean handwriting trace against all 100k words.
    # ------------------------------------------------------------------
    recognizer = LexiconRecognizer(lexicon)
    trace = HandwritingGenerator().word_trace("water")
    result = recognizer.recognize(trace.points)
    print(
        f"clean trace: {result.word!r} "
        f"(shortlist {result.shortlist_size} of {len(lexicon):,}, "
        f"{result.dtw_evals} DTW evaluations survived early-abandon)"
    )
    for word, distance in result.candidates[:3]:
        print(f"    {word:12s} {distance:.4f}")

    # ------------------------------------------------------------------
    # The serving path: recognition at finalize, straight from RF.
    # ------------------------------------------------------------------
    run = simulate_word(
        "water",
        user=0,
        seed=4,
        config=ScenarioConfig(distance=2.0, los=True),
        run_baseline=False,
    )
    from repro.stream import SessionConfig, SessionManager

    manager = SessionManager(
        run.system,
        config=SessionConfig(
            out_of_order="drop", sample_rate=run.config.sample_rate
        ),
        recognizer=recognizer,
    )
    manager.on_session_finalized = lambda event: print(
        f"finalized {event.epc_hex[-4:]}: recognised "
        f"{event.recognition.word!r} from the reconstructed trajectory"
    )
    manager.ingest_burst(run.rfidraw_log.reports)
    manager.finalize_all()
    stats = manager.stats()
    print(
        f"stats: classified={stats.classified} "
        f"dtw_evals={stats.dtw_evals} "
        f"shortlist p50={stats.shortlist_percentiles().get('p50')}"
    )


if __name__ == "__main__":
    main()
