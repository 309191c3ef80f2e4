"""repro — reproduction of "Race Detection for Web Applications" (PLDI 2012).

The package implements WebRacer, the paper's dynamic race detector, together
with every substrate it needs: a mini-JavaScript engine (:mod:`repro.js`), a
DOM (:mod:`repro.dom`), an incremental HTML parser (:mod:`repro.html`), and
a single-threaded browser engine simulator with virtual time
(:mod:`repro.browser`).  The paper's contribution lives in
:mod:`repro.core` (happens-before relation, logical memory model, race
detector, filters) and the top-level facade :mod:`repro.webracer`.

Typical use::

    from repro import WebRacer

    racer = WebRacer(seed=7)
    report = racer.check_page(html_text)
    for race in report.classified.races:
        print(race.describe())
"""

from __future__ import annotations

__version__ = "1.0.0"

# Re-exported lazily to keep `import repro` light; the facade pulls in the
# whole engine.


def __getattr__(name):
    if name in ("WebRacer", "PageReport", "CorpusReport", "SiteResult"):
        from . import webracer

        return getattr(webracer, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = ["WebRacer", "PageReport", "CorpusReport", "SiteResult", "__version__"]
