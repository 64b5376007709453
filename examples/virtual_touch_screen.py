#!/usr/bin/env python3
"""The paper's headline application: write words in the air, read them back.

Simulates a user writing words with an RFID on their finger (letters
≈ 10 cm wide, 2 m from the reader wall), streams the reader's phase
reports through a live :class:`repro.stream.TrackingSession` (points
appear as the user writes — this is the touch screen being *live*, with
incremental candidate pruning keeping the steady-state per-report cost
low), renders the finalized reconstruction as terminal ASCII art, and
feeds it to the DTW handwriting recogniser (the MyScript Stylus
stand-in).

Run it with::

    python examples/virtual_touch_screen.py [words ...]
"""

import sys

import numpy as np

from repro.experiments.scenarios import ScenarioConfig, WordJob, simulate_words
from repro.handwriting.recognizer import WordRecognizer
from repro.stream import SessionConfig


def render_ascii(points: np.ndarray, width: int = 64, height: int = 14) -> str:
    """Render a 2-D trajectory as terminal ASCII art."""
    span = points.max(axis=0) - points.min(axis=0)
    span[span < 1e-9] = 1e-9
    scaled = (points - points.min(axis=0)) / span
    canvas = [[" "] * width for _ in range(height)]
    for u, v in scaled:
        col = min(int(u * (width - 1)), width - 1)
        row = min(int((1.0 - v) * (height - 1)), height - 1)
        canvas[row][col] = "#"
    return "\n".join("".join(row) for row in canvas)


def main(words: list[str]) -> None:
    recognizer = WordRecognizer()
    correct = 0
    # Simulate the whole batch of writing sessions through the shared
    # substrate (one layout, one channel) in one call…
    runs = simulate_words(
        [
            WordJob(
                word,
                user=index % 5,
                seed=4242 + index,
                config=ScenarioConfig(distance=2.0, los=True),
            )
            for index, word in enumerate(words)
        ],
        run_baseline=False,
    )
    # …then stream each word's reports through a live session, as a real
    # touch screen would. (A figure-style sweep that only needs final
    # trajectories would pass batch_reconstruct=True above instead and
    # read run.rfidraw_result — one merged engine block for all words.)
    for word, run in zip(words, runs):
        # Stream the reader reports through a live session, as a real
        # touch screen would; finalize() returns the same result the
        # batch facade computes on the finished log. prune_margin drops
        # wrong-lobe candidates once the vote race settles, provably
        # without changing the chosen trajectory.
        session = run.system.open_session(
            config=SessionConfig(
                sample_rate=run.config.sample_rate,
                prune_margin=10.0,
                prune_burn_in=16,
            )
        )
        live = session.extend(run.rfidraw_log.reports)
        result = session.finalize()
        trajectory = result.trajectory
        prediction = recognizer.classify(trajectory)
        verdict = "✓" if prediction == word else "✗"
        correct += prediction == word
        survivors = len(result.candidates)
        print(f"\nUser wrote {word!r} in the air — RF-IDraw saw "
              f"({len(live)} points streamed live, {survivors} candidate"
              f"{'s' if survivors != 1 else ''} kept to the end):")
        print(render_ascii(trajectory))
        print(f"  recognised as {prediction!r}  {verdict}")
    print(f"\n{correct}/{len(words)} words recognised correctly")


if __name__ == "__main__":
    chosen = sys.argv[1:] or ["play", "clear", "import"]
    main([word.lower() for word in chosen])
