"""Synthetic multi-domain data, the linked/shared class split protocol,
CSV ingestion/export, and deterministic batch sampling.

A dataset is columnar: features (n, d), integer labels, integer domain
ids, and stable integer sample ids. The synthetic generator draws one
prototype vector per class and one transform + offset per domain, then
emits ``samples_per_cell`` noisy transformed prototypes per
(class, domain) cell, so every class is expressed in every domain until
a split plan restricts availability.

A split plan designates one target domain and partitions the class set
into *linked* classes (each available in exactly one source domain) and
*shared* classes (each available in all but one source domain). Linked
and shared classes are assigned to domains round-robin over a seeded
domain order, which guarantees no single source domain expresses the
full class set. A plan's one serialized form is ``SplitPlan.to_doc``, the
``plan.json`` that ``SplitPlan.load`` reads back.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    CsvFormatError,
    DegenerateInputError,
    PlanMismatchError,
    require_finite,
    strict_json,
    write_output,
)
from .seeding import rng_for

TRANSFORM_FAMILIES = ("rotation", "affine", "channel_bias")

# preset shared-class counts (low, high) for benchmark class-set sizes
# whose published splits do not follow the 1/3 and 2/3 rounding rule
_SHARED_PRESETS = {5: (2, 4), 7: (3, 5), 65: (25, 50)}

# Rows that ``ingest_csv`` allocates first; the matrices double when full.
_INGEST_ROWS = 64


@dataclass
class Dataset:
    """Columnar sample store. ids are stable across subsetting."""

    features: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.features.ndim != 2:
            raise ContractError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        for name, arr in (("labels", self.labels), ("domains", self.domains),
                          ("ids", self.ids)):
            if arr.shape != (n,):
                raise ContractError(f"{name} shape {arr.shape} does not match {n} samples")
        if not np.isfinite(self.features).all():
            raise ContractError("features contain non-finite values")
        if n and (self.labels.min() < 0 or self.domains.min() < 0):
            raise ContractError("labels and domains must be non-negative")

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.features.shape[1])

    # set(tolist()) rather than np.unique: in numpy 2.x a plain np.unique
    # imports numpy.ma, which nothing in fond reads
    def class_set(self) -> set[int]:
        return set(self.labels.tolist())

    def domain_set(self) -> set[int]:
        return set(self.domains.tolist())

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(features=self.features[idx], labels=self.labels[idx],
                       domains=self.domains[idx], ids=self.ids[idx])


# float64 values generate_synthetic may allocate (1 GiB)
MAX_SYNTHETIC_FLOATS = 2**27


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry of the generated multi-domain mixture.

    shift controls how far each domain's transform strays from the
    identity (0 makes every domain identical); noise_std is the feature
    noise; label_noise is the probability a sample's label is replaced
    by a uniformly random other class.
    """

    num_classes: int
    input_dim: int
    num_domains: int = 4
    transform_family: str = "affine"
    shift: float = 1.0
    noise_std: float = 0.1
    label_noise: float = 0.0
    samples_per_cell: int = 40
    prototype_seed: int | None = None

    def __post_init__(self):
        require_finite(shift=self.shift, noise_std=self.noise_std, label_noise=self.label_noise)
        if self.num_domains < 2:
            raise ConfigError(f"num_domains must be >= 2, got {self.num_domains}")
        if self.num_classes < 3:
            raise ConfigError(f"num_classes must be >= 3, got {self.num_classes}")
        if self.input_dim < 2:
            raise ConfigError(f"input_dim must be >= 2, got {self.input_dim}")
        if self.transform_family not in TRANSFORM_FAMILIES:
            raise ConfigError(
                f"transform_family must be one of {TRANSFORM_FAMILIES}, "
                f"got {self.transform_family!r}"
            )
        if self.shift < 0:
            raise ConfigError(f"shift must be >= 0, got {self.shift}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError(f"label_noise must be in [0, 1), got {self.label_noise}")
        if self.samples_per_cell < 1:
            raise ConfigError("samples_per_cell must be >= 1")
        # checked before generate_synthetic allocates, so an oversized spec
        # exits as a config error, never as numpy's allocation failure
        k, c, d = self.num_domains, self.num_classes, self.input_dim
        floats = k * c * self.samples_per_cell * d + k * d * d + k * d + c * d
        if floats > MAX_SYNTHETIC_FLOATS:
            raise ConfigError(
                f"num_domains={k}, num_classes={c}, input_dim={d} and "
                f"samples_per_cell={self.samples_per_cell} generate {floats} float64 values "
                f"(features, domain transforms and offsets, class prototypes), "
                f"over the cap of 2**27")


def _domain_transform(family: str, d: int, shift: float, rng: np.random.Generator):
    """One (matrix, offset) pair; both reduce to (I, 0) at shift 0."""
    if family == "rotation":
        mat = np.eye(d)
        for i in range(d // 2):
            angle = shift * rng.uniform(-1.0, 1.0)
            c, s = np.cos(angle), np.sin(angle)
            giv = np.eye(d)
            p, q = 2 * i, 2 * i + 1
            giv[p, p] = c
            giv[q, q] = c
            giv[p, q] = -s
            giv[q, p] = s
            mat = giv @ mat
        return mat, np.zeros(d)
    if family == "affine":
        mat = np.eye(d) + (shift / np.sqrt(d)) * rng.normal(size=(d, d))
        offset = (shift / np.sqrt(d)) * rng.normal(size=d)
        return mat, offset
    # channel_bias: identity mixing, per-coordinate additive shift only
    return np.eye(d), shift * rng.normal(size=d)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Class-balanced multi-domain mixture; deterministic given seed.

    x = A_s @ mu_c + offset_s + eps with eps ~ N(0, noise_std^2 I);
    rows are emitted in (domain, class) order with ids 0..n-1.
    """
    d, c_n, k = spec.input_dim, spec.num_classes, spec.num_domains
    proto_seed = spec.prototype_seed if spec.prototype_seed is not None else seed
    prototypes = rng_for(proto_seed, "prototypes").normal(size=(c_n, d))

    transforms = np.empty((k, d, d))
    offsets = np.empty((k, d))
    for s in range(k):
        transforms[s], offsets[s] = _domain_transform(
            spec.transform_family, d, spec.shift, rng_for(seed, "domain", s))

    noise_rng = rng_for(seed, "noise")
    flip_rng = rng_for(seed, "labelnoise")
    per_cell = spec.samples_per_cell
    n = k * c_n * per_cell
    features = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    domains = np.empty(n, dtype=np.int64)
    row = 0
    for s in range(k):
        for c in range(c_n):
            base = transforms[s] @ prototypes[c] + offsets[s]
            eps = noise_rng.normal(size=(per_cell, d)) * spec.noise_std
            features[row:row + per_cell] = base + eps
            labels[row:row + per_cell] = c
            domains[row:row + per_cell] = s
            row += per_cell
    if spec.label_noise > 0.0:
        flips = flip_rng.random(n) < spec.label_noise
        deltas = flip_rng.integers(1, c_n, size=n)
        labels = np.where(flips, (labels + deltas) % c_n, labels)

    return Dataset(features=features, labels=labels, domains=domains,
                   ids=np.arange(n, dtype=np.int64))


def _plan_id(value, name: str, key: bool = False) -> int:
    """``value``, an id in a plan's ``name``, as an int: an integer (numpy's
    too, never a bool) or, for an ``assignment`` key, the decimal string of one."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if key and isinstance(value, str) and re.fullmatch(r"0|-?[1-9][0-9]*", value):
        return int(value)
    raise ContractError(f"{name} holds {value!r}, not an integer id")


def _plan_ids(values, name: str) -> list[int]:
    """The ids of a plan's list ``name``, each read by ``_plan_id``; ContractError
    naming the list and the id if one repeats."""
    ids = [_plan_id(v, name) for v in values]
    if len(set(ids)) < len(ids):
        raise ContractError(f"{name} repeats id {next(i for i in ids if ids.count(i) > 1)}")
    return ids


@dataclass(frozen=True)
class SplitPlan:
    """Which classes each source domain expresses, plus the held-out target.

    ``__post_init__`` alone normalizes and checks a plan, from iterables of
    integer ids (numpy's too, never a bool; an ``assignment`` key may also
    be the decimal string that a ``plan.json`` object key is), none repeated
    within its list; ``to_doc`` is its one dict form, the object that
    ``plan.json`` holds.
    """

    target_domain: int
    source_domains: tuple[int, ...]
    shared_classes: frozenset[int]
    linked_classes: frozenset[int]
    assignment: dict[int, frozenset[int]] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "target_domain", _plan_id(self.target_domain, "target_domain"))
        object.__setattr__(self, "source_domains",
                           tuple(sorted(_plan_ids(self.source_domains, "source_domains"))))
        object.__setattr__(self, "shared_classes",
                           frozenset(_plan_ids(self.shared_classes, "shared_classes")))
        object.__setattr__(self, "linked_classes",
                           frozenset(_plan_ids(self.linked_classes, "linked_classes")))
        object.__setattr__(self, "assignment",
                           {_plan_id(c, "assignment", key=True):
                            frozenset(_plan_ids(doms, f"assignment[{c}]"))
                            for c, doms in self.assignment.items()})
        self.validate()

    @property
    def classes(self) -> frozenset[int]:
        return self.shared_classes | self.linked_classes

    def class_codes(self, labels) -> np.ndarray:
        """Each label's rank in ``sorted(self.classes)``: the dense code of
        the classifier output that stands for it, so class ids need not be
        contiguous. ``ContractError`` names the labels the plan lacks."""
        classes = np.array(sorted(self.classes), dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        codes = np.searchsorted(classes, labels)
        missing = classes[np.minimum(codes, len(classes) - 1)] != labels
        if missing.any():
            raise ContractError(f"labels {sorted(set(labels[missing].tolist()))} "
                                f"are not in the plan")
        return codes

    def validate(self) -> None:
        k = len(self.source_domains)
        if k < 2:   # a shared class is expressed by k - 1 sources; validation holds one out
            raise ContractError(f"need at least 2 source domains, got {k}")
        if self.target_domain in self.source_domains:
            raise ContractError("target domain listed among source domains")
        if self.shared_classes & self.linked_classes:
            raise ContractError("shared and linked class sets overlap")
        if set(self.assignment) != set(self.classes):
            raise ContractError("assignment does not cover the class set exactly")
        if not self.shared_classes or not self.linked_classes:
            raise ContractError("both class groups must be non-empty")
        for c in self.linked_classes:
            if len(self.assignment[c]) != 1:
                raise ContractError(f"linked class {c} assigned to {len(self.assignment[c])} domains")
        for c in self.shared_classes:
            if len(self.assignment[c]) != k - 1:
                raise ContractError(
                    f"shared class {c} assigned to {len(self.assignment[c])} domains, "
                    f"expected {k - 1}")
        for c, doms in self.assignment.items():
            if not doms <= set(self.source_domains):
                raise ContractError(f"class {c} assigned outside the source domains")
        for s in self.source_domains:
            if all(s in self.assignment[c] for c in self.classes):
                raise ContractError(f"source domain {s} expresses every class")

    def to_doc(self) -> dict:
        """The JSON object of a ``plan.json``; ``SplitPlan(**doc)`` is this plan again."""
        return {"target_domain": self.target_domain,
                "source_domains": list(self.source_domains),
                "shared_classes": sorted(self.shared_classes),
                "linked_classes": sorted(self.linked_classes),
                "assignment": {str(c): sorted(doms) for c, doms in self.assignment.items()}}

    @classmethod
    def load(cls, path) -> "SplitPlan":
        """The plan a ``to_doc`` JSON file holds; ContractError naming ``path`` for a
        file that is not one (a missing, unknown or repeated key, undecodable JSON)."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls(**strict_json(fh.read(), ContractError))
            except (ValueError, TypeError, AttributeError, RecursionError) as exc:
                raise ContractError(f"{path} is not a valid split plan: "
                                    f"{type(exc).__name__}: {exc}") from None

    def check_split(self, setting, target_domain: int) -> "SplitPlan":
        """This plan if it is of ``setting`` and holds out ``target_domain``; else ConfigError."""
        n, shared = len(self.classes), len(self.shared_classes)
        if shared_class_count(n, setting) != shared:
            raise ConfigError(f"setting {setting!r} shares {shared_class_count(n, setting)} "
                              f"of {n} classes, but the plan file shares {shared}")
        if target_domain != self.target_domain:
            raise ConfigError(f"split.target_domain is {target_domain}, "
                              f"but the plan file holds out domain {self.target_domain}")
        return self

    def check_data(self, dataset: Dataset) -> "SplitPlan":
        """This plan if it plans every class of ``dataset`` and the data's domains are
        exactly its target and its sources; else PlanMismatchError."""
        unplanned = dataset.class_set() - self.classes
        if unplanned:
            raise PlanMismatchError(f"dataset classes {sorted(unplanned)} are not in the plan")
        planned = sorted({self.target_domain, *self.source_domains})
        if sorted(dataset.domain_set()) != planned:
            raise PlanMismatchError(f"dataset domains {sorted(dataset.domain_set())} are not "
                                    f"the plan's {planned} (target {self.target_domain})")
        return self


def shared_class_count(num_classes: int, setting) -> int:
    """Size of the shared group for a named setting or an explicit count.

    Named settings aim at 1/3 ("low") and 2/3 ("high") shared classes,
    with presets for the benchmark sizes whose published counts deviate
    from plain rounding.
    """
    if isinstance(setting, bool):
        raise ConfigError("setting must be 'low', 'high', or an integer count")
    if isinstance(setting, (int, np.integer)):
        n_s = int(setting)
    else:
        # the exact name only: the plan seed hashes the raw string, so
        # "HIGH" would draw another plan than "high"
        if setting not in ("low", "high"):
            raise ConfigError(f"setting must be 'low', 'high', or an integer, got {setting!r}")
        if num_classes in _SHARED_PRESETS:
            n_s = _SHARED_PRESETS[num_classes][0 if setting == "low" else 1]
        else:
            frac = 1.0 / 3.0 if setting == "low" else 2.0 / 3.0
            n_s = int(round(frac * num_classes))
            n_s = min(max(n_s, 1), num_classes - 1)
    if n_s < 1 or n_s >= num_classes:
        raise ConfigError(
            f"shared class count {n_s} invalid for {num_classes} classes "
            f"(need 1 <= count <= {num_classes - 1})")
    return n_s


def make_split_plan(classes, domains, target_domain: int, setting, seed) -> SplitPlan:
    """Seeded draw of a linked/shared split and its domain assignment.

    ``domains`` is the collection of domain ids, or a count k for the
    ids 0..k-1. The draw depends on the ids only through their sorted
    order, so an order-preserving relabelling relabels the plan.

    The class list is shuffled once to pick the shared group, and the
    source-domain order is shuffled once. Linked class j lands on source
    domain order[j mod K]; shared class j is expressed everywhere except
    order[j mod K]. Placing the first linked class on the same position
    the first shared class avoids keeps every source domain short of the
    full class set.
    """
    classes = sorted(int(c) for c in classes)
    if len(set(classes)) != len(classes):
        raise ConfigError("duplicate class ids")
    n = len(classes)
    if n < 3:
        raise ConfigError(f"need at least 3 classes, got {n}")
    domains = sorted({int(s) for s in (range(domains) if isinstance(domains, int) else domains)})
    if len(domains) < 3:
        raise ConfigError(f"need at least 3 domains (2 sources), got {len(domains)}")
    if target_domain not in domains:
        raise ConfigError(f"target_domain {target_domain} is not one of the domains {domains}")
    n_s = shared_class_count(n, setting)

    rng = rng_for(seed, "split")
    order = [classes[i] for i in rng.permutation(n)]
    sources = [s for s in domains if s != target_domain]
    k = len(sources)
    dom_order = [sources[i] for i in rng.permutation(k)]
    assignment = {c: [dom_order[j % k]] for j, c in enumerate(order[n_s:])}
    assignment.update({c: [s for s in sources if s != dom_order[j % k]]
                       for j, c in enumerate(order[:n_s])})
    return SplitPlan(target_domain=target_domain, source_domains=sources,
                     shared_classes=order[:n_s], linked_classes=order[n_s:],
                     assignment=assignment)


def apply_split(dataset: Dataset, plan: SplitPlan):
    """(source training pool, held-out target test set).

    The pool keeps sample (x, y, s) iff s is a source domain that the
    plan assigns class y to; the target set keeps every target-domain
    sample. Availability restriction applies only to source domains.
    ``SplitPlan.check_data`` first checks that the plan fits the data.
    """
    plan.check_data(dataset)
    keep = np.zeros(len(dataset), dtype=bool)
    for c in plan.classes:
        allowed = np.isin(dataset.domains, sorted(plan.assignment[c]))
        keep |= (dataset.labels == c) & allowed
    source_pool = dataset.subset(np.flatnonzero(keep))
    target_set = dataset.subset(np.flatnonzero(dataset.domains == plan.target_domain))
    return source_pool, target_set


def split_train_val(dataset: Dataset, seed):
    """Per-domain shuffled 80/20 split; each domain keeps >= 1 sample per
    side whenever it has >= 2 samples."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for s in sorted(dataset.domain_set()):
        idx = np.flatnonzero(dataset.domains == s)
        perm = idx[rng_for(seed, "val-split", s).permutation(len(idx))]
        if len(perm) < 2:
            train_idx.extend(perm.tolist())
            continue
        n_train = int(round(0.8 * len(perm)))
        n_train = min(max(n_train, 1), len(perm) - 1)
        train_idx.extend(perm[:n_train].tolist())
        val_idx.extend(perm[n_train:].tolist())
    return dataset.subset(np.array(sorted(train_idx), dtype=np.int64)), \
        dataset.subset(np.array(sorted(val_idx), dtype=np.int64))


def csv_cell(value) -> str:
    """One CSV cell: empty for None, ``repr`` for a float (so reading it
    back gives the same bits), ``str`` otherwise."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def provenance_line(provenance: dict | None) -> str:
    """The ``# provenance:`` comment line that leads an output CSV, or ""
    without a provenance record."""
    if provenance is None:
        return ""
    return "# provenance: " + json.dumps(provenance, sort_keys=True) + "\n"


def write_table(path, header, rows, provenance: dict | None = None) -> None:
    """Write an output table: the provenance line when given, the header,
    then one CSV record of ``csv_cell`` values per row."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(map(csv_cell, row) for row in rows)
    write_output(path, [(provenance_line(provenance) + text.getvalue()).encode("utf-8")])


def export_csv(dataset: Dataset, path, provenance: dict | None = None) -> None:
    """Write `id,domain,label,f0..f{d-1}` rows; floats as ``repr`` writes
    them, so the ingest round trip is bit-exact. Optional provenance JSON
    rides along as a leading comment line. A failed export leaves no file."""
    from .floatrows import float_rows   # only the float-row writers load it
    header = "id,domain,label," + ",".join(f"f{j}" for j in range(dataset.input_dim))
    prefixes = [f"{i},{domain},{label}," for i, domain, label in zip(
        dataset.ids.tolist(), dataset.domains.tolist(), dataset.labels.tolist())]
    head = (provenance_line(provenance) + header + "\n").encode("utf-8")
    write_output(path, itertools.chain([head], float_rows(prefixes, dataset.features)))


def _csv_lines(fh):
    """(line number, text) of each line of a dataset CSV that is neither
    blank nor a '#' comment, newline stripped. Bytes that are not UTF-8
    (read as lone surrogates) are reported with their line."""
    for lineno, raw in enumerate(fh, start=1):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise CsvFormatError("not UTF-8 text", line=lineno) from None
        line = raw.rstrip("\n")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def _read_csv(path, read_rows):
    """Open a dataset CSV, check its header and hand the rest to
    ``read_rows(fh, lines, d)``: the file, the ``_csv_lines`` generator
    positioned after the header, and the feature count. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = _csv_lines(fh)
        lineno, header = next(lines, (None, None))
        if header is None:
            raise CsvFormatError("missing header")
        parts = header.split(",")
        if len(parts) < 4 or parts[:3] != ["id", "domain", "label"]:
            raise CsvFormatError("header must start with id,domain,label,f0,...", line=lineno)
        if parts[3:] != [f"f{j}" for j in range(len(parts) - 3)]:
            raise CsvFormatError(f"feature columns must be f0..f{len(parts) - 4}", line=lineno)
        return read_rows(fh, lines, len(parts) - 3)


def _has_duplicates(ids: np.ndarray) -> bool:
    sorted_ids = np.sort(ids)           # not np.unique: see Dataset.class_set
    return bool((sorted_ids[1:] == sorted_ids[:-1]).any())


def _printable_ascii(fh):
    """The lines of ``fh``, raising ValueError at the first that holds a
    character other than printable ASCII before its newline. numpy's C
    reader strips the separators U+001C-U+001F around a number and reads
    some non-ASCII letters as digits, where ``int`` and ``float`` refuse
    them."""
    for line in fh:
        if not (line.isascii() and line.rstrip("\n").isprintable()):
            raise ValueError("not printable ASCII")
        yield line


def _load_rows(fh, lines, d: int):
    """The data rows through numpy's C reader: (int64 (id, domain, label)
    rows, float64 features), or None when it cannot read them or they
    break a check of ``_parse_rows`` (no rows, a non-finite feature, a
    negative domain or label, a repeated id). A line with a character
    other than printable ASCII, a comment line, a line of blanks or an
    underscore also gives None, so this accepts no file that
    ``_parse_rows`` rejects, and it rounds each decimal as ``float`` does."""
    dtype = np.dtype([("ints", np.int64, (3,)), ("features", np.float64, (d,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # e.g. "input contained no data"
            rows = np.loadtxt(_printable_ascii(fh), dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    ints = np.ascontiguousarray(rows["ints"])
    if (not len(ints) or (ints[:, 1:] < 0).any() or _has_duplicates(ints[:, 0])
            or not np.isfinite(rows["features"]).all()):
        return None
    features = np.ascontiguousarray(rows["features"])
    return ints, features


def _parse_rows(fh, lines, d: int):
    """The data rows, line by line: (int64 (id, domain, label) rows,
    float64 features). Each row goes straight into two growing matrices,
    so no per-row objects outlive their line; ``int`` and ``float`` parse
    the values. Errors carry the 1-based line number."""
    feats, ints = np.empty((_INGEST_ROWS, d)), np.empty((_INGEST_ROWS, 3), np.int64)
    n = 0
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != d + 3:
            raise CsvFormatError(f"expected {d + 3} fields, found {len(parts)}", line=lineno)
        if n == len(feats):
            # in-place growth; refcheck is off because no view of
            # either matrix exists yet
            feats.resize((2 * n, d), refcheck=False)
            ints.resize((2 * n, 3), refcheck=False)
        try:
            ints[n] = int(parts[0]), int(parts[1]), int(parts[2])
            values = [float(v) for v in parts[3:]]
        except (ValueError, OverflowError) as exc:   # overflow: beyond int64
            raise CsvFormatError(f"unparsable value ({exc})", line=lineno) from None
        if not all(map(math.isfinite, values)):
            raise CsvFormatError("non-finite feature value", line=lineno)
        if ints[n, 1] < 0 or ints[n, 2] < 0:
            raise CsvFormatError("domain and label must be non-negative", line=lineno)
        feats[n] = values
        n += 1
    if n == 0:
        raise CsvFormatError("no data rows")
    feats.resize((n, d), refcheck=False)
    ints.resize((n, 3), refcheck=False)
    if _has_duplicates(ints[:, 0]):
        raise CsvFormatError("duplicate sample ids")
    return ints, feats


def ingest_csv(path) -> Dataset:
    """Parse a dataset CSV; '#' lines are comments. Errors carry the
    1-based line number. Warns when per-class counts differ by > 10x.

    The leading comments and the header are read line by line; the data
    rows then go through numpy's C text reader (``_load_rows``). A file
    that reader refuses or whose rows break a check is read again by the
    line parser (``_parse_rows``), the specification of the format: it
    raises the error with its line, or reads the few values that ``int``
    and ``float`` take and the C reader does not (``1_0``, non-ASCII
    digits). Both round each decimal exactly as ``export_csv``'s ``repr``
    expects, so a file gives the same bytes either way."""
    ints, feats = _read_csv(path, _load_rows) or _read_csv(path, _parse_rows)
    dataset = Dataset(features=feats, labels=ints[:, 2], domains=ints[:, 1], ids=ints[:, 0])
    counts = np.unique(dataset.labels, return_counts=True)[1]
    if len(counts) > 1 and counts.max() > 10 * counts.min():
        warnings.warn(
            f"class counts span {counts.min()}..{counts.max()} (> 10x imbalance)",
            stacklevel=2)
    return dataset


class BatchSampler:
    """Deterministic epoch batching over a source pool: each epoch shuffles
    all indices and chunks them (last short chunk kept). ``batch_size`` is
    ``TrainerConfig.batch_size``, which that config checks (>= 2)."""

    def __init__(self, dataset: Dataset, batch_size: int, seed):
        if len(dataset) == 0:
            raise DegenerateInputError("cannot sample batches from an empty pool")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.seed = seed

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        order = rng_for(self.seed, "epoch", epoch).permutation(len(self.dataset))
        return [order[i:i + self.batch_size] for i in range(0, len(order), self.batch_size)]
