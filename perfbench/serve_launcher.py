"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python -m perfbench.serve_launcher SPANS.jsonl <repro serve args>``.
The wrappers (``Predictor.predict``, the model call and the rest of
:func:`perfbench.spans.install`) go in before the normal ``serve`` entry
point runs; the spans are written to ``SPANS.jsonl`` when it returns.
"""

from __future__ import annotations

import sys

from perfbench.spans import SpanRecorder, install


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spans_path, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
