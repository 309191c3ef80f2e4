"""The synthetic Fortune-100 corpus (paper, Section 6.1).

The paper evaluated WebRacer on the home pages of 100 Fortune-100
companies.  Those pages (as of 2012) are unavailable, so the corpus is
rebuilt synthetically — see DESIGN.md's substitution table.  Its
construction is calibrated against the paper's published results:

* the 41 sites of Table 2 are reconstructed by name, each seeded with
  pattern instances chosen so its *filtered* race counts (and harmful
  counts) match the paper's row exactly — e.g. Ford gets a 112-location
  polling pattern, MetLife/Walgreens get 35-image Gomez monitoring,
  Sunoco gets 11 unguarded email-form links;
* the remaining 59 sites carry no filter-surviving races;
* every site additionally receives *noise* — async-library variable races
  and delayed-widget event-dispatch races that the filters remove — drawn
  from a seeded skewed distribution calibrated to Table 1's unfiltered
  statistics (variable mean ≈ 22.4, event-dispatch mean ≈ 22.3, overall
  median ≈ 27, max ≈ 278).

Everything is deterministic in ``master_seed``.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, Tuple

from .generator import Site, SiteSpec, build_site

#: Paper values for Table 1 (mean / median / max per race type).
PAPER_TABLE1 = {
    "html": {"mean": 2.2, "median": 0.0, "max": 112},
    "function": {"mean": 0.4, "median": 0.0, "max": 6},
    "variable": {"mean": 22.4, "median": 5.5, "max": 269},
    "event_dispatch": {"mean": 22.3, "median": 7.0, "max": 198},
    "all": {"mean": 47.3, "median": 27.0, "max": 278},
}

#: Paper totals for Table 2: type -> (filtered races, harmful).
PAPER_TABLE2_TOTALS = {
    "html": (219, 32),
    "function": (37, 7),
    "variable": (8, 5),
    "event_dispatch": (91, 83),
}

#: Number of sites with at least one filtered race in the paper's Table 2.
PAPER_TABLE2_SITES = 41

PatternList = List[Tuple[str, Dict]]


def _valero(n: int) -> PatternList:
    return [("valero_email_link", {})] * n


def _ford(filtered_html: int) -> PatternList:
    """A polling pattern contributing ``filtered_html`` benign HTML races."""
    return [("ford_polling", {"nodes": filtered_html - 1})]


def _fn(harmful: int, benign: int) -> PatternList:
    return [("function_race_unguarded", {})] * harmful + [
        ("function_race_guarded", {})
    ] * benign


def _gomez(images: int) -> PatternList:
    return [("gomez_monitoring", {"images": images})]


def _southwest() -> PatternList:
    return [("southwest_form_hint", {})]


def _benign_var(n: int) -> PatternList:
    return [("two_script_form_hint", {})] * n


def _delayed_onload(n: int) -> PatternList:
    return [("delayed_onload_attach", {})] * n


#: Table 2 reconstruction: site -> seeded patterns.  Comments give the
#: paper's row as "HTML Function Variable EventDispatch" with harmful in
#: parentheses.
TABLE2_SPECS: List[Tuple[str, PatternList]] = [
    # Allstate: 6 (6) html, 2 (0) fn
    ("Allstate", _valero(6) + _fn(0, 2)),
    # AmericanExpress: 41 (1) html
    ("AmericanExpress", _valero(1) + _ford(40)),
    # BankOfAmerica: 4 (0) html, 1 (1) fn
    ("BankOfAmerica", _ford(4) + _fn(1, 0)),
    # BestBuy: 2 (0) fn
    ("BestBuy", _fn(0, 2)),
    # CiscoSystems: 1 (0) fn
    ("CiscoSystems", _fn(0, 1)),
    # Citigroup: 3 (0) html, 3 (2) fn, 1 (0) ed
    ("Citigroup", _ford(3) + _fn(2, 1) + _delayed_onload(1)),
    # Comcast: 6 (1) fn
    ("Comcast", _fn(1, 5)),
    # ConocoPhillips: 2 (1) fn
    ("ConocoPhillips", _fn(1, 1)),
    # Costco: 3 (3) html
    ("Costco", _valero(3)),
    # FedEx: 1 (0) html
    ("FedEx", _ford(1)),
    # Ford: 112 (0) html
    ("Ford", _ford(112)),
    # GeneralDynamics: 1 (0) fn
    ("GeneralDynamics", _fn(0, 1)),
    # GeneralMotors: 1 (0) fn
    ("GeneralMotors", _fn(0, 1)),
    # HartfordFinancial: 1 (1) html
    ("HartfordFinancial", _valero(1)),
    # HomeDepot: 1 (0) fn
    ("HomeDepot", _fn(0, 1)),
    # Humana: 13 (13) ed
    ("Humana", _gomez(13)),
    # IBM: 16 (0) html, 1 (1) var
    ("IBM", _ford(16) + _southwest()),
    # Intel: 3 (0) fn
    ("Intel", _fn(0, 3)),
    # JPMorganChase: 3 (3) html, 5 (0) fn
    ("JPMorganChase", _valero(3) + _fn(0, 5)),
    # JohnsonControls: 1 (1) html, 1 (0) var
    ("JohnsonControls", _valero(1) + _benign_var(1)),
    # Kroger: 1 (0) html
    ("Kroger", _ford(1)),
    # LibertyMutual: 4 (0) fn, 1 (0) ed
    ("LibertyMutual", _fn(0, 4) + _delayed_onload(1)),
    # Lowes: 1 (0) html
    ("Lowes", _ford(1)),
    # Macys: 1 (1) var
    ("Macys", _southwest()),
    # MassMutual: 1 (0) html
    ("MassMutual", _ford(1)),
    # MerrillLynch: 1 (1) html
    ("MerrillLynch", _valero(1)),
    # MetLife: 35 (35) ed
    ("MetLife", _gomez(35)),
    # MorganStanley: 1 (1) html
    ("MorganStanley", _valero(1)),
    # Motorola: 1 (0) html, 1 (0) ed
    ("Motorola", _ford(1) + _delayed_onload(1)),
    # NewsCorporation: 1 (0) html
    ("NewsCorporation", _ford(1)),
    # Safeway: 1 (1) var
    ("Safeway", _southwest()),
    # Sunoco: 11 (11) html
    ("Sunoco", _valero(11)),
    # Target: 2 (2) html, 1 (1) var
    ("Target", _valero(2) + _southwest()),
    # UnitedHealthGroup: 1 (0) ed
    ("UnitedHealthGroup", _delayed_onload(1)),
    # UnitedTechnologies: 2 (1) html
    ("UnitedTechnologies", _valero(1) + _ford(1)),
    # ValeroEnergy: 5 (1) html, 4 (1) fn, 2 (0) var
    ("ValeroEnergy", _valero(1) + _ford(4) + _fn(1, 3) + _benign_var(2)),
    # Verizon: 1 (1) fn
    ("Verizon", _fn(1, 0)),
    # WalMart: 1 (1) var
    ("WalMart", _southwest()),
    # Walgreens: 35 (35) ed
    ("Walgreens", _gomez(35)),
    # WaltDisney: 1 (0) html
    ("WaltDisney", _ford(1)),
    # WellsFargo: 4 (0) ed
    ("WellsFargo", _delayed_onload(4)),
]

#: The 59 sites that reported no filter-surviving races.
CLEAN_SITES: List[str] = [
    "ExxonMobil", "Chevron", "GeneralElectric", "Berkshire", "Fannie",
    "HewlettPackard", "ATT", "McKesson", "CardinalHealth", "CVS",
    "UnitedParcel", "ProcterGamble", "Kraft", "MarathonOil", "Apple",
    "PepsiCo", "AIG", "Amerisource", "PrudentialFin", "Boeing",
    "Caterpillar", "Medco", "Pfizer", "Google", "Dow", "Aetna",
    "StateFarm", "Dell", "Sysco", "Cigna", "Microsoft", "Coke",
    "BunkerRamo", "TIAA", "Honeywell", "NorthropGrumman", "Sprint",
    "EnterpriseGP", "TysonFoods", "PlainsAllAmer", "Oracle",
    "Amazon", "DuPont", "Sears", "HCA", "AbbottLabs", "CocaCola",
    "DeltaAir", "Merck", "TimeWarner", "Halliburton", "Travelers",
    "PhilipMorris", "MurphyOil", "Paccar", "Alcoa", "FreddieMac",
    "Nationwide", "Supervalu",
]


def noise_levels(index: int, master_seed: int = 0) -> Tuple[int, int]:
    """Seeded (variable_noise, event_noise) sizes for site ``index``.

    Skewed three-tier distribution calibrated to Table 1: a few heavy
    sites, a band of medium ones, a long tail of light ones.
    """
    rng = random.Random(master_seed * 1_000_003 + index * 7919)

    def draw(tier: int) -> int:
        if tier < 2:  # 10% heavy (obfuscated-library-laden pages)
            return rng.randint(50, 210)
        if tier < 8:  # 30% medium
            return rng.randint(8, 35)
        return rng.randint(0, 6)  # 60% light

    # Variable and event noise tiers are offset so no site is heavy in
    # both — keeps the per-site maximum near the paper's 278.
    return draw(index % 20), draw((index + 10) % 20)


def corpus_specs(master_seed: int = 0) -> List[SiteSpec]:
    """The 100 SiteSpecs: 41 Table-2 sites + 59 clean sites, plus noise."""
    specs: List[SiteSpec] = []
    names_and_patterns: List[Tuple[str, PatternList]] = list(TABLE2_SPECS)
    names_and_patterns.extend((name, []) for name in CLEAN_SITES)
    for index, (name, patterns) in enumerate(names_and_patterns):
        spec = SiteSpec(name=name)
        for pattern_name, kwargs in patterns:
            spec.add(pattern_name, **kwargs)
        var_noise, event_noise = noise_levels(index, master_seed)
        if var_noise:
            spec.add("async_global_noise", globals_count=var_noise)
        if event_noise:
            spec.add("delayed_widget_script", widgets=event_noise)
        rng = random.Random(master_seed * 31 + index)
        if rng.random() < 0.3:
            spec.add("iframe_variable_race")
        if rng.random() < 0.3:
            spec.add("ajax_global_write")
        if rng.random() < 0.2:
            spec.add("cookie_race")
        if rng.random() < 0.5:
            spec.add("guarded_form_hint")
        spec.add("static_noise", blocks=rng.randint(1, 4))
        specs.append(spec)
    return specs


def build_corpus(master_seed: int = 0, limit: int = 100) -> List[Site]:
    """Materialize the corpus (optionally just the first ``limit`` sites)."""
    return [build() for build in corpus_builders(master_seed, limit)]


def corpus_builders(
    master_seed: int = 0, limit: int = 100
) -> List[Callable[[], Site]]:
    """One picklable zero-arg builder per corpus site (the first ``limit``).

    ``WebRacer.check_corpus`` calls each inside its site's crash/timeout
    guard, so a site that fails or stalls while building is isolated like
    one that fails while running.
    """
    return [
        functools.partial(_build_spec, spec)
        for spec in corpus_specs(master_seed)[:limit]
    ]


def _build_spec(spec: SiteSpec) -> Site:
    # Looks ``build_site`` up at call time, so a patched module attribute
    # reaches the builders (and, by fork, the workers) too.
    return build_site(spec)


def expected_table2_totals() -> Dict[str, Tuple[int, int]]:
    """Ground-truth Table 2 totals seeded into the corpus."""
    sites = [build_site(_spec_for(name, patterns)) for name, patterns in TABLE2_SPECS]
    totals: Dict[str, List[int]] = {}
    for site in sites:
        for race_type, (count, harmful) in site.expected.items():
            bucket = totals.setdefault(race_type, [0, 0])
            bucket[0] += count
            bucket[1] += harmful
    return {race_type: tuple(val) for race_type, val in totals.items()}


def _spec_for(name: str, patterns: PatternList) -> SiteSpec:
    spec = SiteSpec(name=name)
    for pattern_name, kwargs in patterns:
        spec.add(pattern_name, **kwargs)
    return spec
