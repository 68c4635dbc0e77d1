"""In-kernel family matchers: byte-identity against the scalar cascade.

The contract under test (DESIGN.md §16): with the in-kernel matchers on
(the default) or off (the PR 5 legacy twin), at any worker count and any
legal forced label width, a packed scan / classify batch produces exactly
the verdicts the per-domain ``SquattingDetector._classify`` cascade
produces — the kernels change throughput and the fallback-rate telemetry,
never a byte of output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.brands import build_paper_catalog
from repro.brands.catalog import Brand, BrandCatalog
from repro.dns.packedzone import PackedZoneBuilder
from repro.dns.zone import ZoneStore
from repro.squatting import packedscan
from repro.squatting.bits import (
    EDIT_EQUAL,
    EDIT_INSERTION,
    EDIT_NONE,
    EDIT_OMISSION,
    EDIT_REPETITION,
    EDIT_SUBSTITUTION,
    EDIT_TRANSPOSITION,
    BitsModel,
    edit1_profile,
    edit1_typo_details,
    pack_window_codes,
)
from repro.squatting.detector import SquattingDetector
from repro.squatting.packedscan import (
    PackedScanContext,
    packed_scan,
    packed_scan_counts,
)
from repro.squatting.typo import TypoModel
from repro.stages import digest_squat_matches


# ----------------------------------------------------------------------
# helpers: cached detectors (index builds dominate otherwise)
# ----------------------------------------------------------------------

_DETECTORS = {}


def _detector_for(domains):
    key = tuple(domains)
    detector = _DETECTORS.get(key)
    if detector is None:
        if key == ("paper",):
            detector = SquattingDetector(build_paper_catalog())
        else:
            catalog = BrandCatalog(
                Brand(name=domain.split(".")[0], domain=domain)
                for domain in domains)
            detector = SquattingDetector(catalog)
        if len(_DETECTORS) > 64:
            _DETECTORS.clear()
        _DETECTORS[key] = detector
    return detector


def _paper_detector():
    return _detector_for(("paper",))


def _build_pair(names):
    zone = ZoneStore()
    builder = PackedZoneBuilder()
    for name in names:
        zone.add_name(name)
        builder.add_name(name)
    return zone, builder.build()


# ----------------------------------------------------------------------
# adversarial corpus: every family's near-misses and hits, plus the
# unrepresentable shapes that must fall back
# ----------------------------------------------------------------------

def _adversarial_names():
    detector = _paper_detector()
    brands = sorted(detector._brand_by_label)[:40]
    swaps = {"o": "0", "l": "1", "i": "1", "e": "3", "a": "4", "s": "5",
             "u": "v", "m": "rn", "w": "vv"}
    names = []
    for i, label in enumerate(brands):
        tld = ("com", "net", "org", "pw")[i % 4]
        names.append(f"{label}.{tld}")                  # brand / wrongTLD
        names.append(f"{label}.{tld}.{tld}")            # subdomain of it
        names.append(f"secure-{label}.{tld}")           # combo token
        names.append(f"{label}{'x' * (i % 3 + 1)}.com")  # glued / near-miss
        names.append(f"{label[:4]}{'qz'[i % 2]}tail.com")  # combo-prefix miss
        for src, dst in list(swaps.items())[i % 5:i % 5 + 3]:
            if src in label:
                names.append(label.replace(src, dst, 1) + ".com")  # homograph
        if len(label) > 3:
            names.append(label[:-1] + ".com")           # omission typo
            names.append(label + label[-1] + ".com")    # repetition typo
            names.append(label[1] + label[0] + label[2:] + ".org")  # transpose
    names += [
        "xn--fcebook-8va.com", "xn--pypal-4ve.net", "xn--bogus--junk.com",
        "pаypal.com",                                   # Cyrillic а: unicode
        "plain-organic-name.com", "hyphen-rich-but-benign-name.net",
        "a.com", "ab.net", "-odd-.com",
    ] + [f"organic{i:04d}.com" for i in range(400)]
    return names


def test_kernel_scan_identical_across_workers_and_widths():
    detector = _paper_detector()
    names = _adversarial_names()
    zone, packed = _build_pair(names)
    reference = digest_squat_matches(detector.scan(zone))
    ref_counts = detector.scan_counts(zone)
    natural = PackedScanContext(detector, packed).width
    for workers in (1, 2, 4):
        for width in (None, natural + 5):
            got = packed_scan(detector, packed, workers=workers,
                              chunk_size=256, width=width)
            assert digest_squat_matches(got) == reference, \
                f"workers={workers} width={width}"
            stats = packedscan.take_last_scan_stats()
            assert stats is not None and stats.rows == packed.n_registered
            assert set(stats.fallbacks) <= {"idn", "unicode"}
            assert packed_scan_counts(detector, packed, workers=workers,
                                      chunk_size=256,
                                      width=width) == ref_counts


def test_legacy_twin_identical_and_counts_scalar_fallbacks():
    detector = _paper_detector()
    names = _adversarial_names()
    zone, packed = _build_pair(names)
    reference = digest_squat_matches(detector.scan(zone))
    got = packed_scan(detector, packed, workers=1, in_kernel=False)
    assert digest_squat_matches(got) == reference
    stats = packedscan.take_last_scan_stats()
    assert stats is not None
    # legacy mode routes every kept non-candidate row through _classify
    assert set(stats.fallbacks) == {"scalar"}
    assert stats.fallbacks["scalar"] == stats.survivors - stats.fast_hits


def test_kernel_fallback_rate_is_small_on_adversarial_corpus():
    detector = _paper_detector()
    _zone, packed = _build_pair(_adversarial_names())
    packed_scan(detector, packed, workers=1)
    stats = packedscan.take_last_scan_stats()
    # the corpus plants a handful of xn--/unicode rows on purpose; the
    # kernel must absorb everything else
    assert 0 < stats.fallback_total < 0.01 * stats.rows
    assert stats.fallback_rate < 0.01


def test_take_last_scan_stats_consumed_on_read():
    detector = _paper_detector()
    _zone, packed = _build_pair(["facebook.com", "faceb00k.com", "x.com"])
    packed_scan(detector, packed)
    assert packedscan.take_last_scan_stats() is not None
    assert packedscan.take_last_scan_stats() is None


def test_dict_scan_clears_stale_kernel_stats():
    detector = _paper_detector()
    zone, packed = _build_pair(["facebook.com", "faceb00k.com"])
    packed_scan(detector, packed)
    detector.scan_sharded(zone, workers=1)  # dict-backed: no kernel stats
    assert packedscan.take_last_scan_stats() is None


def test_classify_batch_identical_to_classify_domain():
    detector = _paper_detector()
    _zone, packed = _build_pair(["anchor.com"])
    queries = _adversarial_names()[:300] + [
        "FACEBOOK.COM.", "www.facebook.com", "login.faceb00k.net",
        ".com", "com", "", "a" * 100 + ".com", "pаypal.com",
    ]
    for in_kernel in (True, False):
        context = PackedScanContext(detector, packed, in_kernel=in_kernel)
        got = context.classify_batch(queries)
        expected = [detector.classify_domain(query) for query in queries]
        assert got == expected
    # the over-width and empty queries were counted as unrepresentable
    assert context.kernel.fallbacks.get("width", 0) >= 1
    assert context.kernel.fallbacks.get("empty", 0) >= 1


# ----------------------------------------------------------------------
# property: random catalogs × adversarial mutations stay byte-identical
# ----------------------------------------------------------------------

_BRAND_CORES = st.from_regex(r"[a-z]{4,9}", fullmatch=True)
_TLDS = ("com", "net", "org", "pw")


@st.composite
def _catalog_and_names(draw):
    cores = draw(st.lists(_BRAND_CORES, min_size=1, max_size=3, unique=True))
    domains = tuple(f"{core}.{_TLDS[i % 2]}" for i, core in enumerate(cores))
    names = []
    n_names = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n_names):
        choice = draw(st.integers(min_value=0, max_value=9))
        core = draw(st.sampled_from(cores))
        tld = draw(st.sampled_from(_TLDS))
        index = draw(st.integers(min_value=0, max_value=len(core) - 1))
        char = draw(st.sampled_from("abz019-"))
        if choice == 0:
            name = f"{core}.{tld}"                          # brand/wrongTLD
        elif choice == 1:
            name = core[:index] + char + core[index + 1:] + "." + tld
        elif choice == 2:
            name = core[:index] + core[index:index + 1] * 2 \
                + core[index + 1:] + "." + tld               # repetition
        elif choice == 3:
            name = core[:index] + core[index + 1:] + "." + tld  # omission
        elif choice == 4:
            name = f"{draw(st.sampled_from(['my', 'secure', 'x']))}-{core}.{tld}"
        elif choice == 5:
            name = f"{core}{draw(_BRAND_CORES)}.{tld}"       # glued combo
        elif choice == 6:
            name = core.replace("o", "0").replace("l", "1") + "." + tld
        elif choice == 7:
            name = draw(st.from_regex(r"[a-z][a-z0-9-]{1,14}[a-z0-9]",
                                      fullmatch=True)) + "." + tld
        elif choice == 8:
            name = f"xn--{core}-8va.{tld}"                   # punycode-ish
        else:
            name = f"www.{core}.{tld}"                       # subdomain
        if ".." not in name and not name.startswith("-"):
            names.append(name)
    return domains, names or [f"{cores[0]}.com"]


@given(_catalog_and_names())
@settings(max_examples=30, deadline=None)
def test_property_kernel_equals_scalar_cascade(case):
    domains, names = case
    detector = _detector_for(domains)
    zone, packed = _build_pair(names)
    reference = detector.scan(zone)
    natural = PackedScanContext(detector, packed).width
    for width in (None, natural + 3):
        got = packed_scan(detector, packed, workers=1, width=width)
        assert digest_squat_matches(got) == digest_squat_matches(reference)
    context = PackedScanContext(detector, packed)
    queries = sorted(set(names))
    assert context.classify_batch(queries) == \
        [detector.classify_domain(query) for query in queries]


# ----------------------------------------------------------------------
# the flat homograph pass: buckets that interleave markers with labels
# ----------------------------------------------------------------------

# brand cores over a tiny alphabet, so (length, edge byte) buckets collide
# and hold labels of the row's length next to one-shorter markers; the
# "ö" variants add non-ASCII markers of equal character length
_HOM_CORES = st.from_regex(r"[mwuv][moliu]{2,5}[lm]", fullmatch=True)
# equal-length look-alike swaps, and the length-changing ones (at most one
# per row, or the row leaves every bucket of its brand)
_HOM_SWAPS = {"o": "0", "l": "1", "i": "1", "u": "v", "v": "u", "ö": "o"}
_HOM_STRETCH = (("m", "rn"), ("w", "vv"), ("rn", "m"))


@st.composite
def _homograph_catalog_and_names(draw):
    cores = draw(st.lists(_HOM_CORES, min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        cores.append(cores[0][:1] + "ö" + cores[0][2:])
    # a sibling listed first that some rows also read as: one interior
    # "l" swapped for an "i" (a "1" reads as both) — only the first in
    # catalog order may win — or the first byte swapped u <-> v, so the
    # sibling sits only in the last-byte bucket and a row the first-byte
    # bucket decides must not reach it
    base = next((core for core in reversed(cores) if core[0] in "uv"),
                cores[-1])
    at = base.find("l", 1, len(base) - 1)
    edge_first = draw(st.booleans())
    if base[0] in "uv" and (edge_first or at < 0):
        cores.insert(0, "vu"[base[0] == "v"] + base[1:])
    elif at > 0:
        cores.insert(0, base[:at] + "i" + base[at + 1:])
    cores = list(dict.fromkeys(cores))
    domains = tuple(f"{core}.{_TLDS[i % 2]}" for i, core in enumerate(cores))
    names = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        # rows lean on the sibling pair
        label = draw(st.sampled_from(cores + [cores[0], base] * 3))
        # look-alike swaps at most positions: three or more escape the
        # enumerated candidates and reach the homograph pass
        flips = draw(st.lists(st.integers(min_value=0, max_value=3),
                              min_size=len(label), max_size=len(label)))
        label = "".join(_HOM_SWAPS.get(char, char) if flip else char
                        for char, flip in zip(label, flips))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            src, dst = draw(st.sampled_from(_HOM_STRETCH))
            label = label.replace(src, dst, 1)
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            # an interior byte from the bucket alphabet: same length and
            # edge bytes, often the same allowed-byte set
            at = draw(st.integers(min_value=1, max_value=6))
            if at < len(label) - 1:
                label = label[:at] + draw(st.sampled_from("mowl1")) \
                    + label[at + 1:]
        names.append(f"{label}.{draw(st.sampled_from(_TLDS))}")
    return domains, names


@given(_homograph_catalog_and_names())
@settings(max_examples=25, deadline=None)
def test_property_flat_homograph_pass_equals_scalar_cascade(case):
    domains, names = case
    detector = _detector_for(domains)
    zone, packed = _build_pair(names)
    reference = digest_squat_matches(detector.scan(zone))
    natural = PackedScanContext(detector, packed).width
    assists = set()
    # a tiny slice floor so the two-worker leg really runs the pool over
    # several slices (the same slices as the serial leg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packedscan, "PACKED_CHUNK", 8)
        for width in (None, natural + 3):
            for workers in (1, 2):
                got = packed_scan(detector, packed, workers=workers,
                                  chunk_size=8, width=width)
                assert digest_squat_matches(got) == reference, \
                    f"workers={workers} width={width}"
                assists.add(packedscan.take_last_scan_stats()
                            .homograph_assists)
    assert len(assists) == 1
    queries = sorted(set(names))
    for width in (None, natural + 3):
        context = PackedScanContext(detector, packed, width=width)
        assert context.classify_batch(queries) == \
            [detector.classify_domain(query) for query in queries]


def test_flat_homograph_pass_resolves_markers_and_labels():
    # three-edit look-alikes escape the enumerated candidates:
    # "mw00l1l" keeps the length and resolves on a label entry in-kernel;
    # "mw001l" reads as both "mwooil" and "mwooll", and the first in
    # catalog order wins; the "rn…" rows are one longer, so the brand is a
    # marker in their last-byte bucket and the row needs the scalar DP;
    # "möbel" adds a non-ASCII marker to the "m" first-byte buckets;
    # "uw001l" also reads as "vwooil", which sits only in the last-byte
    # bucket, but the first-byte bucket's "uwooil" decides it first
    detector = _detector_for(("mail.com", "mbank.pl", "möbel.de",
                              "mwoolil.com", "mwooil.com", "mwooll.com",
                              "vwooil.com", "uwooil.com"))
    names = ["rnwo0lil.com", "rnw00l1l.com", "mw00l1l.com", "rnai1.com",
             "mwoo1i1.com", "rnb4nk.net", "mööbel.de", "mxyzl.com",
             "mw001l.com", "rnw001l.com", "uw001l.com"]
    zone, packed = _build_pair(names)
    reference = detector.scan(zone)
    got = packed_scan(detector, packed, workers=1)
    assert digest_squat_matches(got) == digest_squat_matches(reference)
    verdicts = {m.domain: (m.brand, m.detail) for m in got}
    assert verdicts["mw00l1l.com"] == ("mwoolil", "ascii")
    assert verdicts["mw001l.com"] == ("mwooil", "ascii")
    assert verdicts["uw001l.com"] == ("uwooil", "ascii")
    stats = packedscan.take_last_scan_stats()
    assert stats.homograph_assists == 3
    mat = PackedScanContext(detector, packed).matrices
    for table in mat.hom_edges:
        assert np.all(np.diff(table.keys) > 0)
        assert table.offsets[-1] == table.enc.shape[0] == len(table.names)
        assert all((name is not None) == bool(flag)
                   for name, flag in zip(table.names, table.is_label))


# ----------------------------------------------------------------------
# the u64 prefix-code join behind the candidate and brand joins
# ----------------------------------------------------------------------

def _s_column(labels, width):
    """Sorted unique ``S{width}`` keys plus their padded byte matrix."""
    keys = np.array(sorted(set(label.encode() for label in labels)),
                    dtype=f"S{width}")
    return keys, keys.view(np.uint8).reshape(keys.size, width)


def _check_prefix_join(key_labels, needle_labels, width):
    keys, key_matrix = _s_column(key_labels, width)
    needles = np.array([label.encode() for label in needle_labels],
                       dtype=f"S{width}")
    needle_matrix = needles.view(np.uint8).reshape(needles.size, width)
    hit, pos = packedscan.prefix_membership(
        keys, packedscan.prefix_codes(key_matrix), needles,
        packedscan.prefix_codes(needle_matrix))
    if keys.size:
        ref_pos = np.minimum(np.searchsorted(keys, needles), keys.size - 1)
        ref_hit = keys[ref_pos] == needles
    else:
        ref_pos = np.zeros(needles.size, dtype=np.int64)
        ref_hit = np.zeros(needles.size, dtype=bool)
    assert hit.tolist() == ref_hit.tolist()
    assert pos[hit].tolist() == ref_pos[ref_hit].tolist()
    return hit


def test_prefix_codes_big_endian_and_zero_padded():
    _keys, matrix = _s_column(["ab"], 3)
    assert packedscan.prefix_codes(matrix).tolist() == \
        [int.from_bytes(b"ab" + b"\0" * 6, "big")]
    _keys, matrix = _s_column(["abcdefghij"], 10)
    assert packedscan.prefix_codes(matrix).tolist() == \
        [int.from_bytes(b"abcdefgh", "big")]


def test_prefix_join_edge_cases_across_the_8_byte_boundary():
    keys = ["abcdefgh", "abcdefghi", "abcdefghij", "abcdefgz", "abc", "ab",
            "b", "zz"]
    needles = ["abcdefgh", "abcdefghi", "abcdefghij", "abcdefghx",
               "abcdefghix", "abc", "abcd", "abcx", "ab", "a", "b", "bz",
               "zz", "zzz", "q"]
    for width in range(1, 11):
        fit_keys = [k for k in keys if len(k) <= width]
        fit_needles = [n for n in needles if len(n) <= width]
        hit = _check_prefix_join(fit_keys, fit_needles, width)
        assert hit.tolist() == [n in fit_keys for n in fit_needles]
    # an empty key set hits nothing
    hit = _check_prefix_join([], ["abc", "abcdefghij"], 10)
    assert not hit.any()


@given(st.lists(st.from_regex(r"[ab]{1,10}", fullmatch=True), max_size=40),
       st.lists(st.from_regex(r"[abc]{1,10}", fullmatch=True), min_size=1,
                max_size=60),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_property_prefix_join_equals_searchsorted(keys, needles, extra):
    # two-letter keys share 8-byte prefixes all the time; needles include
    # keys plus trailing bytes via the shared alphabet
    needles = needles + [key + "a" for key in keys[:5]]
    width = max(len(label) for label in keys + needles) + extra
    if width > 10:
        needles = [n for n in needles if len(n) <= 10] or ["a"]
        keys = [k for k in keys if len(k) <= 10]
        width = 10
    _check_prefix_join(keys, needles, width)


def test_join_positions_are_never_read_outside_the_hit_mask():
    """Poison every miss position: a read outside the hit mask would
    index out of range (or change a verdict)."""
    detector = _paper_detector()
    names = _adversarial_names()
    zone, packed = _build_pair(names)
    reference = digest_squat_matches(detector.scan(zone))
    real = packedscan.prefix_membership

    def poisoned(keys, key_codes, values, value_codes):
        hit, pos = real(keys, key_codes, values, value_codes)
        pos[~hit] = keys.size + 10 ** 9
        return hit, pos

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packedscan, "prefix_membership", poisoned)
        got = packed_scan(detector, packed, workers=1)
        assert digest_squat_matches(got) == reference
        queries = names[:300]
        context = PackedScanContext(detector, packed)
        assert context.classify_batch(queries) == \
            [detector.classify_domain(query) for query in queries]


# ----------------------------------------------------------------------
# the bit-parallel edit-distance kernel against its scalar oracles
# ----------------------------------------------------------------------

def _pack_labels(labels, width=None):
    width = width or max((len(label) for label in labels), default=1)
    padded = np.zeros((len(labels), width), dtype=np.uint8)
    lens = np.zeros(len(labels), dtype=np.int64)
    for i, label in enumerate(labels):
        raw = label.encode("utf-8")
        padded[i, :len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        lens[i] = len(raw)
    return padded, lens


def test_pack_window_codes_values_and_bounds():
    padded, _ = _pack_labels(["abcd", "ab"])
    codes = pack_window_codes(padded, 2)
    assert codes.shape == (2, 3)
    assert codes[0, 0] == (ord("a") << 8) | ord("b")
    assert codes[1, 1] == (ord("b") << 8)  # window into the NUL padding
    with pytest.raises(ValueError):
        pack_window_codes(padded, 9)
    with pytest.raises(ValueError):
        pack_window_codes(padded, 0)


def test_edit1_profile_known_relations():
    target = "facebook"
    labels = ["facebook", "faceb00k", "facebok", "ffacebook", "faceebook",
              "fcaebook", "facebooks", "gacebook", "totally-else", "faceboko"]
    padded, lens = _pack_labels(labels)
    codes, pos = edit1_profile(padded, lens, target)
    assert codes[0] == EDIT_EQUAL
    assert codes[1] == EDIT_NONE           # two substitutions
    assert codes[2] == EDIT_OMISSION and pos[2] == 6
    assert codes[3] == EDIT_REPETITION and pos[3] == 1
    assert codes[4] == EDIT_REPETITION
    assert codes[5] == EDIT_TRANSPOSITION and pos[5] == 1
    assert codes[6] == EDIT_INSERTION and pos[6] == 8
    assert codes[7] == EDIT_SUBSTITUTION and pos[7] == 0
    assert codes[8] == EDIT_NONE
    assert codes[9] == EDIT_TRANSPOSITION and pos[9] == 6


def test_edit1_profile_rejects_over_64_byte_targets():
    padded, lens = _pack_labels(["abc"])
    with pytest.raises(ValueError):
        edit1_profile(padded, lens, "a" * 64)


_LABELS = st.lists(st.from_regex(r"[a-z0-9-]{1,12}", fullmatch=True),
                   min_size=1, max_size=30)
_TARGETS = st.from_regex(r"[a-z0-9]{1,10}", fullmatch=True)


@given(_LABELS, _TARGETS)
@settings(max_examples=60, deadline=None)
def test_property_edit1_matches_typo_and_bits_models(labels, target):
    typo = TypoModel()
    bits = BitsModel()
    padded, lens = _pack_labels(labels, width=14)
    assert edit1_typo_details(padded, lens, target) == \
        [typo.matches(label, target) for label in labels]
    assert bits.matches_batch(padded, lens, target) == \
        [bits.matches(label, target) for label in labels]


@given(_TARGETS, st.integers(min_value=0, max_value=11),
       st.sampled_from("abz09-"))
@settings(max_examples=60, deadline=None)
def test_property_edit1_detects_planted_edits(target, index, char):
    index = index % (len(target) + 1)
    planted = [
        target,                                        # EQUAL
        target[:index] + char + target[index:],        # insertion family
    ]
    if index < len(target):
        planted.append(target[:index] + target[index + 1:])   # omission
        planted.append(target[:index] + char + target[index + 1:])
    padded, lens = _pack_labels(planted, width=12)
    codes, _pos = edit1_profile(padded, lens, target)
    assert codes[0] == EDIT_EQUAL
    assert codes[1] in (EDIT_INSERTION, EDIT_REPETITION)
    if index < len(target):
        assert codes[2] in (EDIT_OMISSION, EDIT_EQUAL)
        assert codes[3] in (EDIT_SUBSTITUTION, EDIT_EQUAL)


# ----------------------------------------------------------------------
# typo model satellites: memoized insertions, O(len) repetition check
# ----------------------------------------------------------------------

def test_keyboard_insertions_memoized_and_copied():
    model = TypoModel()
    first = model.keyboard_insertions("facebook")
    second = model.keyboard_insertions("facebook")
    assert first == second and first is not second  # defensive copies
    first.append("tampered")
    assert model.keyboard_insertions("facebook") == second


def test_matches_length_delta_short_circuit():
    model = TypoModel()
    assert model.matches("facebookxx", "facebook") is None
    assert model.matches("facebo", "facebook") is None
    assert model.matches("facebook", "facebook") is None


@given(_TARGETS, st.integers(min_value=0, max_value=9))
@settings(max_examples=60, deadline=None)
def test_property_is_repetition_equals_bruteforce(target, index):
    index = index % len(target)
    label = target[:index] + target[index] + target[index:]
    brute = any(target[:i] + target[i] + target[i:] == label
                for i in range(len(target)))
    assert TypoModel._is_repetition(label, target) == brute
    # and a genuine non-repetition stays rejected
    assert not TypoModel._is_repetition(target + "#", target)
