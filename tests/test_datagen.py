import errno
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fond import datagen
from fond.seeding import rng_for
from fond.errors import (
    ConfigError,
    ContractError,
    CsvFormatError,
    DegenerateInputError,
    PlanMismatchError,
)


def small_spec(**kw):
    base = dict(num_classes=4, input_dim=3, num_domains=3, transform_family="affine",
                shift=0.8, noise_std=0.05, samples_per_cell=6)
    base.update(kw)
    return datagen.SyntheticSpec(**base)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            small_spec(num_domains=1)
        with pytest.raises(ConfigError):
            small_spec(num_classes=2)
        with pytest.raises(ConfigError):
            small_spec(shift=-0.1)
        with pytest.raises(ConfigError):
            small_spec(label_noise=1.0)
        with pytest.raises(ConfigError):
            small_spec(transform_family="warp")
        with pytest.raises(ConfigError, match="input_dim"):
            small_spec(input_dim=1)
        with pytest.raises(ConfigError, match="noise_std"):
            small_spec(noise_std=-0.1)
        with pytest.raises(ConfigError, match="samples_per_cell"):
            small_spec(samples_per_cell=0)

    def test_generated_float_count_is_capped(self):
        # 2 x 3 x 2 x p feature values plus 8 + 4 + 6 for the transforms,
        # offsets and prototypes: 12 p + 18 reaches 2**27 between p and p + 1
        p = (datagen.MAX_SYNTHETIC_FLOATS - 18) // 12
        small_spec(num_domains=2, num_classes=3, input_dim=2, samples_per_cell=p)
        with pytest.raises(ConfigError, match=r"generate 134217738 float64 values"):
            small_spec(num_domains=2, num_classes=3, input_dim=2, samples_per_cell=p + 1)


def latents(spec, seed):
    """The prototypes, transforms and offsets ``generate_synthetic`` draws
    for ``spec`` and ``seed``, from the same streams."""
    prototypes = rng_for(seed, "prototypes").normal(size=(spec.num_classes, spec.input_dim))
    pairs = [datagen._domain_transform(spec.transform_family, spec.input_dim, spec.shift,
                                       rng_for(seed, "domain", s))
             for s in range(spec.num_domains)]
    return prototypes, np.array([m for m, _ in pairs]), np.array([o for _, o in pairs])


class TestDataset:
    @pytest.mark.parametrize("columns, message", [
        (dict(features=np.zeros((2, 1, 1))), "features must be 2-D"),
        (dict(domains=[0, 0, 0]), r"domains shape \(3,\) does not match 2 samples"),
        (dict(features=[[0.0], [np.inf]]), "non-finite"),
        (dict(labels=[0, -1]), "non-negative"),
        (dict(domains=[-2, 0]), "non-negative"),
    ], ids=["3-d-features", "column-length", "non-finite", "negative-label",
            "negative-domain"])
    def test_columns_checked(self, columns, message):
        base = dict(features=np.zeros((2, 1)), labels=[0, 1], domains=[0, 1], ids=[0, 1])
        datagen.Dataset(**base)
        with pytest.raises(ContractError, match=message):
            datagen.Dataset(**{**base, **columns})


class TestGenerate:
    def test_deterministic(self):
        a = datagen.generate_synthetic(small_spec(), 42)
        b = datagen.generate_synthetic(small_spec(), 42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.domains, b.domains)

    def test_seed_changes_data(self):
        a = datagen.generate_synthetic(small_spec(), 1)
        b = datagen.generate_synthetic(small_spec(), 2)
        assert not np.array_equal(a.features, b.features)

    def test_prototype_seed_fixes_the_class_prototypes(self):
        # with no domain shift and no noise a sample is its class prototype,
        # so two dataset seeds give the same features exactly when they share
        # the prototypes
        spec = small_spec(shift=0.0, noise_std=0.0, prototype_seed=7)
        a, b = (datagen.generate_synthetic(spec, seed) for seed in (1, 2))
        assert np.array_equal(a.features, b.features)
        spec = small_spec(shift=0.0, noise_std=0.0)
        a, b = (datagen.generate_synthetic(spec, seed) for seed in (1, 2))
        assert not np.array_equal(a.features, b.features)

    def test_no_shift_no_noise_collapses_domains(self):
        spec = small_spec(shift=0.0, noise_std=0.0)
        ds = datagen.generate_synthetic(spec, 3)
        for c in range(spec.num_classes):
            rows = ds.features[ds.labels == c]
            assert np.abs(rows - rows[0]).max() == 0.0

    def test_class_balance_within_domains(self):
        spec = small_spec()
        ds = datagen.generate_synthetic(spec, 4)
        for s in range(spec.num_domains):
            for c in range(spec.num_classes):
                count = int(((ds.domains == s) & (ds.labels == c)).sum())
                assert count == spec.samples_per_cell

    def test_rotation_means_match_stored_transform(self):
        spec = datagen.SyntheticSpec(num_classes=3, input_dim=2, num_domains=3,
                                     transform_family="rotation", shift=1.2,
                                     noise_std=0.2, samples_per_cell=400)
        ds = datagen.generate_synthetic(spec, 5)
        prototypes, transforms, offsets = latents(spec, 5)
        for s in range(spec.num_domains):
            for c in range(spec.num_classes):
                cell = ds.features[(ds.domains == s) & (ds.labels == c)]
                expected = transforms[s] @ prototypes[c] + offsets[s]
                tol = 3.0 * spec.noise_std / np.sqrt(len(cell))
                assert np.abs(cell.mean(axis=0) - expected).max() < 4 * tol

    def test_rotation_transforms_are_orthogonal(self):
        spec = small_spec(transform_family="rotation", input_dim=4)
        for mat in latents(spec, 6)[1]:
            assert np.allclose(mat @ mat.T, np.eye(4), atol=1e-12)

    def test_zero_shift_transforms_are_identity(self):
        for family in datagen.TRANSFORM_FAMILIES:
            spec = small_spec(transform_family=family, shift=0.0)
            _, transforms, offsets = latents(spec, 7)
            assert np.allclose(transforms, np.eye(3)[None], atol=0)
            assert not offsets.any()

    def test_label_noise_rate(self):
        spec = small_spec(label_noise=0.25, samples_per_cell=500)
        ds = datagen.generate_synthetic(spec, 8)
        clean = datagen.generate_synthetic(small_spec(samples_per_cell=500), 8)
        flipped = (ds.labels != clean.labels).mean()
        assert 0.2 < flipped < 0.3

    def test_ids_are_consecutive(self):
        ds = datagen.generate_synthetic(small_spec(), 9)
        assert np.array_equal(ds.ids, np.arange(len(ds)))


class TestSplitPlan:
    def test_preset_sizes(self):
        for n, setting, expected in [(7, "low", 3), (7, "high", 5),
                                     (5, "low", 2), (5, "high", 4),
                                     (65, "low", 25), (65, "high", 50)]:
            assert datagen.shared_class_count(n, setting) == expected

    def test_generic_sizes_follow_thirds(self):
        assert datagen.shared_class_count(6, "low") == 2
        assert datagen.shared_class_count(6, "high") == 4
        assert datagen.shared_class_count(9, "low") == 3
        assert datagen.shared_class_count(9, "high") == 6
        assert datagen.shared_class_count(3, "low") == 1
        assert datagen.shared_class_count(3, "high") == 2

    def test_explicit_count_passthrough_and_bounds(self):
        assert datagen.shared_class_count(6, 5) == 5
        with pytest.raises(ConfigError):
            datagen.shared_class_count(6, 6)
        with pytest.raises(ConfigError):
            datagen.shared_class_count(6, 0)
        with pytest.raises(ConfigError):
            datagen.shared_class_count(6, "medium")
        with pytest.raises(ConfigError):
            datagen.shared_class_count(6, True)

    def test_table_examples(self):
        plan = datagen.make_split_plan(range(7), 4, 0, "high", 1)
        assert len(plan.shared_classes) == 5 and len(plan.linked_classes) == 2
        plan = datagen.make_split_plan(range(5), 4, 0, "low", 1)
        assert len(plan.shared_classes) == 2 and len(plan.linked_classes) == 3

    def test_shared_classes_in_k_minus_one_domains(self):
        plan = datagen.make_split_plan(range(6), 4, 2, "high", 3)
        for c in plan.shared_classes:
            assert len(plan.assignment[c]) == 2
        for c in plan.linked_classes:
            assert len(plan.assignment[c]) == 1

    def test_invariants_hold_over_many_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(3, 12))
            k_total = int(rng.integers(3, 6))
            target = int(rng.integers(0, k_total))
            setting = ["low", "high"][int(rng.integers(0, 2))]
            plan = datagen.make_split_plan(range(n), k_total, target, setting,
                                           int(rng.integers(0, 2**31)))
            plan.validate()  # raises on any violated invariant

    def test_validation_rejects_bad_plans(self):
        plan = datagen.make_split_plan(range(5), 4, 0, "low", 2)
        with pytest.raises(ContractError):
            datagen.SplitPlan(target_domain=1, source_domains=plan.source_domains,
                              shared_classes=plan.shared_classes,
                              linked_classes=plan.linked_classes,
                              assignment=plan.assignment)
        with pytest.raises(ContractError):
            datagen.SplitPlan(target_domain=0, source_domains=(1, 2, 3),
                              shared_classes=frozenset({0, 1}),
                              linked_classes=frozenset({0, 2}),
                              assignment={0: {1, 2}, 1: {1, 2}, 2: {3}})

    # target 0; sources 1-3; shared 0 on {1, 2} and 1 on {2, 3}; linked 2 on {3}
    BASE_PLAN = dict(target_domain=0, source_domains=[1, 2, 3], shared_classes=[0, 1],
                     linked_classes=[2], assignment={0: [1, 2], 1: [2, 3], 2: [3]})

    @pytest.mark.parametrize("edit, message", [
        (dict(assignment={0: [1, 2], 1: [2, 3]}),
         "assignment does not cover the class set exactly"),
        (dict(shared_classes=[0, 1, 2], linked_classes=[],
              assignment={0: [1, 2], 1: [2, 3], 2: [1, 3]}),
         "both class groups must be non-empty"),
        (dict(assignment={0: [1, 2], 1: [2, 3], 2: [1, 3]}),
         "linked class 2 assigned to 2 domains"),
        (dict(assignment={0: [1, 2], 1: [2, 3], 2: []}),
         "linked class 2 assigned to 0 domains"),
        (dict(assignment={0: [1], 1: [2, 3], 2: [3]}),
         "shared class 0 assigned to 1 domains, expected 2"),
        (dict(assignment={0: [1, 2], 1: [2, 3], 2: [0]}),
         "class 2 assigned outside the source domains"),
        (dict(assignment={0: [2, 3], 1: [2, 3], 2: [3]}),
         "source domain 3 expresses every class"),
    ], ids=["uncovered-class", "empty-group", "linked-twice", "linked-nowhere",
            "shared-once", "outside-sources", "source-with-every-class"])
    def test_each_plan_rule_refuses_the_plan_that_breaks_only_it(self, edit, message):
        datagen.SplitPlan(**self.BASE_PLAN)
        with pytest.raises(ContractError) as info:
            datagen.SplitPlan(**{**self.BASE_PLAN, **edit})
        assert str(info.value) == message

    def test_no_source_domain_holds_every_class(self):
        for seed in range(50):
            plan = datagen.make_split_plan(range(4), 3, 0, "high", seed)
            for s in plan.source_domains:
                held = {c for c in plan.classes if s in plan.assignment[c]}
                assert held != set(plan.classes)

    def test_errors(self):
        with pytest.raises(ConfigError):
            datagen.make_split_plan(range(2), 4, 0, "low", 0)
        with pytest.raises(ConfigError):
            datagen.make_split_plan(range(5), 2, 0, "low", 0)
        with pytest.raises(ConfigError):
            datagen.make_split_plan(range(5), 4, 7, "low", 0)
        with pytest.raises(ConfigError):
            datagen.make_split_plan([1, 1, 2], 4, 0, "low", 0)

    def test_deterministic(self):
        a = datagen.make_split_plan(range(6), 4, 1, "high", 9)
        b = datagen.make_split_plan(range(6), 4, 1, "high", 9)
        assert a == b

    def test_json_round_trip_bit_exact(self, tmp_path):
        plan = datagen.make_split_plan(range(6), 4, 1, "high", 10)
        doc = plan.to_doc()
        assert datagen.SplitPlan(**doc) == plan
        assert datagen.SplitPlan(**doc).to_doc() == doc
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert datagen.SplitPlan.load(path) == plan
        assert datagen.SplitPlan.load(path).to_doc() == doc

    def test_ids_are_integers_and_keys_their_decimal_strings(self):
        doc = datagen.make_split_plan(range(6), 4, 1, "high", 10).to_doc()
        as_numpy = {**doc, "target_domain": np.int64(doc["target_domain"]),
                    "source_domains": np.array(doc["source_domains"])}
        plan = datagen.SplitPlan(**as_numpy)
        assert plan.to_doc() == doc and type(plan.target_domain) is int
        key = next(iter(doc["assignment"]))
        for name, bad in (("source_domains", [str(s) for s in doc["source_domains"]]),
                          ("shared_classes", [True] + doc["shared_classes"][1:]),
                          ("assignment", {f"0{key}" if k == key else k: v
                                          for k, v in doc["assignment"].items()}),
                          ("assignment", {float(k) if k == key else k: v
                                          for k, v in doc["assignment"].items()})):
            with pytest.raises(ContractError, match=rf"^{name} holds .*, not an integer id$"):
                datagen.SplitPlan(**{**doc, name: bad})

    def test_class_codes_are_ranks_among_the_planned_classes(self):
        plan = datagen.make_split_plan([8, 0, 6, 2, 4], 4, 0, "low", 3)
        codes = plan.class_codes(np.array([8, 0, 4, 4, 2, 6]))
        assert codes.tolist() == [4, 0, 2, 2, 1, 3] and codes.dtype == np.int64
        assert plan.class_codes(np.array([], dtype=np.int64)).tolist() == []
        with pytest.raises(ContractError, match=r"labels \[-1, 3, 9\] are not in the plan"):
            plan.class_codes([9, 3, 0, -1, 3])

    def test_check_data_wants_planned_classes_and_exactly_the_plan_domains(self):
        ds = datagen.generate_synthetic(small_spec(num_domains=4, num_classes=5), 21)
        plan = datagen.make_split_plan(range(5), 4, 0, "low", 22)
        assert plan.check_data(ds) is plan
        # a planned class the data lacks is no mismatch
        assert plan.check_data(ds.subset(np.flatnonzero(ds.labels != 3))) is plan
        unplanned = datagen.make_split_plan(range(4), 4, 0, "low", 22)
        with pytest.raises(PlanMismatchError, match=r"dataset classes \[4\] are not in the plan"):
            unplanned.check_data(ds)
        extra = datagen.make_split_plan(range(5), 3, 0, "low", 22)
        with pytest.raises(PlanMismatchError,
                           match=r"dataset domains \[0, 1, 2, 3\] are not the plan's "
                                 r"\[0, 1, 2\] \(target 0\)"):
            extra.check_data(ds)
        for missing in (0, 2):
            partial = ds.subset(np.flatnonzero(ds.domains != missing))
            kept = sorted({0, 1, 2, 3} - {missing})
            with pytest.raises(PlanMismatchError,
                               match=re.escape(f"dataset domains {kept} are not the plan's "
                                               f"[0, 1, 2, 3] (target 0)")):
                plan.check_data(partial)


class TestApplySplit:
    def test_pool_size_counting_oracle(self):
        spec = small_spec(num_domains=4)
        ds = datagen.generate_synthetic(spec, 11)
        plan = datagen.make_split_plan(range(4), 4, 0, "low", 12)
        pool, target = datagen.apply_split(ds, plan)
        expected = sum(len(plan.assignment[c]) for c in plan.classes) * spec.samples_per_cell
        assert len(pool) == expected
        assert len(target) == spec.num_classes * spec.samples_per_cell

    def test_linked_classes_have_single_source_domain(self):
        ds = datagen.generate_synthetic(small_spec(num_domains=4), 13)
        plan = datagen.make_split_plan(range(4), 4, 3, "high", 14)
        pool, _ = datagen.apply_split(ds, plan)
        for c in plan.linked_classes:
            doms = set(pool.domains[pool.labels == c].tolist())
            assert len(doms) == 1
            assert doms == set(plan.assignment[c])

    def test_target_covers_every_class(self):
        ds = datagen.generate_synthetic(small_spec(num_domains=4), 15)
        plan = datagen.make_split_plan(range(4), 4, 2, "low", 16)
        _, target = datagen.apply_split(ds, plan)
        assert target.class_set() == set(plan.classes)
        assert target.domain_set() == {2}

    def test_plan_mismatch_errors(self):
        ds = datagen.generate_synthetic(small_spec(num_domains=4, num_classes=5), 17)
        plan = datagen.make_split_plan(range(4), 4, 0, "low", 18)  # misses class 4
        with pytest.raises(PlanMismatchError):
            datagen.apply_split(ds, plan)
        plan5 = datagen.make_split_plan(range(5), 3, 0, "low", 18)  # misses domain 3
        with pytest.raises(PlanMismatchError):
            datagen.apply_split(ds, plan5)


class TestTrainValSplit:
    def test_per_domain_ratio_and_partition(self):
        ds = datagen.generate_synthetic(small_spec(samples_per_cell=10), 19)
        train, val = datagen.split_train_val(ds, 20)
        assert len(train) + len(val) == len(ds)
        assert not set(train.ids.tolist()) & set(val.ids.tolist())
        for s in ds.domain_set():
            n_dom = int((ds.domains == s).sum())
            n_train = int((train.domains == s).sum())
            assert n_train == round(0.8 * n_dom)

    def test_domain_of_one_row_goes_to_the_train_side(self):
        ds = datagen.Dataset(features=np.arange(6.0)[:, None], labels=[0, 1, 0, 1, 0, 1],
                             domains=[0, 1, 1, 1, 1, 1], ids=range(6))
        train, val = datagen.split_train_val(ds, 3)
        assert (train.domains == 0).sum() == 1 and 0 not in val.domain_set()
        assert (train.domains == 1).sum() == 4 and (val.domains == 1).sum() == 1

    def test_deterministic_in_seed(self):
        ds = datagen.generate_synthetic(small_spec(), 21)
        t1, v1 = datagen.split_train_val(ds, 5)
        t2, v2 = datagen.split_train_val(ds, 5)
        assert np.array_equal(t1.ids, t2.ids) and np.array_equal(v1.ids, v2.ids)
        t3, _ = datagen.split_train_val(ds, 6)
        assert not np.array_equal(t1.ids, t3.ids)


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        ds = datagen.generate_synthetic(small_spec(), 22)
        path = tmp_path / "data.csv"
        datagen.export_csv(ds, path, provenance={"seed": 22})
        back = datagen.ingest_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.domains, ds.domains)
        assert np.array_equal(back.ids, ds.ids)

    def test_export_that_fails_leaves_no_file(self, tmp_path, monkeypatch):
        # a full disk on the third row block left the rows written so far: a
        # valid dataset of 1,024 rows where 4,000 were exported
        from fond import floatrows
        ds = datagen.generate_synthetic(small_spec(input_dim=8, samples_per_cell=334), 22)
        assert len(ds) >= 4000
        real = floatrows.float_rows

        def full_disk(prefixes, values):   # sub-blocks of 512 rows of 8 values
            blocks = real(prefixes, values)
            yield next(blocks)
            yield next(blocks)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(floatrows, "float_rows", full_disk)
        path = tmp_path / "dataset.csv"
        with pytest.raises(OSError, match="No space left"):
            datagen.export_csv(ds, path)
        assert not path.exists()

    def test_table_that_fails_leaves_no_file(self, tmp_path):
        # a full disk after two rows left a valid table of two rows
        def rows():
            yield ["a", 0.5]
            yield ["b", None]
            raise OSError(errno.ENOSPC, "No space left on device")

        path = tmp_path / "table.csv"
        with pytest.raises(OSError, match="No space left"):
            datagen.write_table(path, ["name", "x"], rows(), provenance={"seed": 1})
        assert not path.exists()

    def test_write_table_bytes(self, tmp_path):
        # csv.writer's CRLF ends and quoting, csv_cell's empty None and repr floats
        path = tmp_path / "table.csv"
        datagen.write_table(path, ["name", "x"], [["a,b", 0.1 + 0.2], ["c", None]],
                            provenance={"seed": 1})
        assert path.read_bytes() == (b'# provenance: {"seed": 1}\n'
                                     b'name,x\r\n"a,b",0.30000000000000004\r\nc,\r\n')

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,domain,label,f0,f1\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            datagen.ingest_csv(path)
        path.write_text("# provenance: {}\n\n# only comments\n")
        with pytest.raises(CsvFormatError, match="missing header"):
            datagen.ingest_csv(path)

    def test_nan_feature_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        for value in ("NaN", "inf", "-Infinity", "1e999"):
            path.write_text(f"id,domain,label,f0\n0,0,0,1.5\n1,0,1,{value}\n")
            with pytest.raises(CsvFormatError, match="line 3: non-finite"):
                datagen.ingest_csv(path)

    def test_unparsable_or_negative_value_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        negative = "domain and label must be non-negative"
        for row, message in (("1,0,1,1.5x", "unparsable"), ("1,0,1,", "unparsable"),
                             ("1.0,0,1,2.0", "unparsable"), (f"{2**63},0,1,2.0", "unparsable"),
                             ("1,-1,1,2.0", negative), ("1,0,-3,2.0", negative)):
            path.write_text(f"# c\nid,domain,label,f0\n0,0,0,1.5\n{row}\n5,0,0,1.0\n")
            with pytest.raises(CsvFormatError, match=f"line 4: {message}"):
                datagen.ingest_csv(path)

    def test_arity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row in ("0,0,0,1.0", "0,0,0,1.0,2.0,3.0"):
            path.write_text(f"id,domain,label,f0,f1\n{row}\n")
            with pytest.raises(CsvFormatError, match="line 2: expected 5 fields"):
                datagen.ingest_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for header, message in (("idx,domain,label,f0", "header must start"),
                                ("id,domain,label", "header must start"),
                                ("id,domain,label,x0", "feature columns must be f0..f0"),
                                ("id,domain,label,f0,f2", "feature columns must be f0..f1"),
                                ("id,domain,label,f1", "feature columns must be f0..f0")):
            path.write_text(f"{header}\n0,0,0,1.0\n")
            with pytest.raises(CsvFormatError, match=f"line 1: {message}"):
                datagen.ingest_csv(path)
        path.write_text("# provenance: {}\nid,domain,label,g0\n")
        with pytest.raises(CsvFormatError, match="line 2: feature columns"):
            datagen.ingest_csv(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        for ids in ((0, 0), (5, 1, 5)):   # adjacent and apart
            rows = [f"{i},0,{k},1.0" for k, i in enumerate(ids)]
            path.write_text("id,domain,label,f0\n" + "\n".join(rows) + "\n")
            with pytest.raises(CsvFormatError, match="duplicate sample ids"):
                datagen.ingest_csv(path)

    def test_imbalance_warning(self, tmp_path):
        path = tmp_path / "imb.csv"
        rows = ["id,domain,label,f0"]
        rows += [f"{i},0,0,{float(i)}" for i in range(22)]
        rows += ["22,0,1,0.5", "23,0,2,0.25"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="imbalance"):
            datagen.ingest_csv(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# provenance: {}\n\nid,domain,label,f0\n0,0,0,-1.25\n")
        ds = datagen.ingest_csv(path)
        assert len(ds) == 1 and ds.features[0, 0] == -1.25
        # ids far from 0..C stay exact and cost no slot per id
        far = 2**40
        path.write_text(f"id,domain,label,f0\n{far},7,0,1.0\n3,{far},7,2.0\n"
                        f"{far + 1},0,{far},3.0\n# {far},0,0,1.0\n")
        ds = datagen.ingest_csv(path)
        assert ds.class_set() == ds.domain_set() == {0, 7, far}
        assert all(type(c) is int for c in ds.class_set() | ds.domain_set())
        assert ds.ids.tolist() == [far, 3, far + 1]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports lead with U+FEFF; the header behind it is valid
        path = tmp_path / "bom.csv"
        plain = "id,domain,label,f0\n0,0,0,1.5\n1,2,1,-2.0\n"
        for text in (plain, "# provenance: {}\n" + plain, plain + "# trailing comment\n"):
            path.write_text("\ufeff" + text, encoding="utf-8")
            ds = datagen.ingest_csv(path)
            assert ds.ids.tolist() == [0, 1] and ds.features[:, 0].tolist() == [1.5, -2.0]

    def test_crlf_file_ingests_like_its_lf_twin(self, tmp_path):
        # spreadsheet exports and write_table end lines with \r\n
        rows = ["# provenance: {}", "id,domain,label,f0,f1", "0,1,2,0.1,-3.5",
                "# a comment", "", "7,0,1,1e-05,2.0"]
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
        crlf.write_bytes(("\ufeff" + "\r\n".join(rows) + "\r\n").encode("utf-8"))
        ds = datagen.ingest_csv(crlf)
        assert dataset_bytes(ds) == dataset_bytes(datagen.ingest_csv(lf))
        assert ds.ids.tolist() == [0, 7] and ds.features[1].tolist() == [1e-05, 2.0]

    def test_values_only_python_reads_still_ingest(self, tmp_path):
        # int() and float() take underscores and non-ASCII digits
        path = tmp_path / "odd.csv"
        path.write_text("id,domain,label,f0\n10,1,3,10.5\n")
        expected = dataset_bytes(datagen.ingest_csv(path))
        for row in ("1_0,1,3,10.5", "\u0661\u0660,1,\u0663,10.5", "10,1,3,1_0.5",
                    "10,\u0661,3,\u0661\u0660.5"):
            path.write_text(f"id,domain,label,f0\n{row}\n", encoding="utf-8")
            assert dataset_bytes(datagen.ingest_csv(path)) == expected, row

    def test_line_parser_grows_past_its_first_allocation(self, tmp_path):
        # rows enough for the line parser's typed arrays to grow several times
        n = 200
        rows = [f"{i},{i % 3},{i % 4},{i / 7!r},{-i}.5" for i in range(n)]
        path = tmp_path / "grow.csv"
        path.write_text("id,domain,label,f0,f1\n" + "\n".join(rows) + "\n")
        want = datagen.ingest_csv(path)
        assert want.ids.tolist() == list(range(n))
        assert want.features[:, 0].tolist() == [i / 7 for i in range(n)]
        rows[10] = rows[10].replace("10,", "1_0,", 1)
        path.write_text("id,domain,label,f0,f1\n" + "\n".join(rows) + "\n")
        assert dataset_bytes(datagen.ingest_csv(path)) == dataset_bytes(want)

    def test_rejected_edge_rows_raise_at_their_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        # int() and float() refuse \x1c-\x1f around a number and U+01FE,
        # which numpy's text reader would strip or read as a digit
        for row in ("1,0,1,nan", "1,0,1,1e999", "1,-1,1,2.0", "1,0,-3,2.0", "0,0,1,2.0",
                    "1.0,0,1,2.0", f"{2**63},0,1,2.0", "1,0,1,", "1,0,1,0x10",
                    "1\x1c,0,1,2.0", "1,0,1,2.0\x1f", "1\u01fe,0,1,2.0"):
            path.write_text(f"id,domain,label,f0\n0,0,0,1.5\n{row}\n", encoding="utf-8")
            with pytest.raises(CsvFormatError, match="line 3: |duplicate sample ids"):
                datagen.ingest_csv(path)


def dataset_bytes(ds):
    return tuple(a.tobytes() for a in (ds.ids, ds.domains, ds.labels, ds.features))


_IDS = st.integers(0, 2**62)
_SMALL_IDS = st.integers(0, 2**40)
_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                     -1.7976931348623157e308, 1e-05, 0.1, 1.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 4), st.booleans())
def test_parse_paths_give_the_same_dataset(tmp_path_factory, data, n, d, provenance):
    # an exported dataset ingests to its own bytes
    ids = data.draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    ds = datagen.Dataset(
        features=np.array(data.draw(st.lists(st.lists(_FLOATS, min_size=d, max_size=d),
                                             min_size=n, max_size=n))),
        labels=data.draw(st.lists(_SMALL_IDS, min_size=n, max_size=n)),
        domains=data.draw(st.lists(_SMALL_IDS, min_size=n, max_size=n)),
        ids=ids)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    datagen.export_csv(ds, path, provenance={"seed": 1} if provenance else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")           # the class-imbalance warning
        back = datagen.ingest_csv(path)
    assert dataset_bytes(back) == dataset_bytes(ds)


class TestBatchSampler:
    def test_epoch_is_permutation(self):
        ds = datagen.generate_synthetic(small_spec(), 23)
        sampler = datagen.BatchSampler(ds, 7, 1)
        batches = sampler.epoch_batches(0)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(len(ds)))
        assert len(batches[-1]) == len(ds) - (len(ds) // 7) * 7 or len(batches[-1]) == 7

    def test_deterministic_per_seed_and_epoch(self):
        ds = datagen.generate_synthetic(small_spec(), 24)
        s1 = datagen.BatchSampler(ds, 8, 3)
        s2 = datagen.BatchSampler(ds, 8, 3)
        assert all(np.array_equal(a, b)
                   for a, b in zip(s1.epoch_batches(5), s2.epoch_batches(5)))
        assert not all(np.array_equal(a, b)
                       for a, b in zip(s1.epoch_batches(5), s1.epoch_batches(6)))

    def test_errors(self):
        ds = datagen.generate_synthetic(small_spec(), 25)
        empty = ds.subset(np.array([], dtype=np.int64))
        with pytest.raises(DegenerateInputError):
            datagen.BatchSampler(empty, 4, 0)

    def test_pooled_domain_mix_matches_composition(self):
        # unequal domain sizes: drop one domain's samples partially
        ds = datagen.generate_synthetic(small_spec(samples_per_cell=30), 26)
        keep = ~((ds.domains == 0) & (np.arange(len(ds)) % 3 != 0))
        pool = ds.subset(np.flatnonzero(keep))
        sampler = datagen.BatchSampler(pool, 24, 9)
        counts = np.zeros(3)
        n_batches = 0
        for epoch in range(120):
            for batch in sampler.epoch_batches(epoch):
                if len(batch) < 24:
                    continue
                for s in range(3):
                    counts[s] += (pool.domains[batch] == s).sum()
                n_batches += 1
        frac = counts / counts.sum()
        expected = np.array([(pool.domains == s).mean() for s in range(3)])
        assert n_batches >= 1000
        assert np.abs(frac - expected).max() < 0.02


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 10), st.integers(3, 5), st.integers(0, 2**30),
       st.sampled_from(["low", "high"]))
def test_split_plan_property(n_classes, k_total, seed, setting):
    target = seed % k_total
    plan = datagen.make_split_plan(range(n_classes), k_total, target, setting, seed)
    assert plan.shared_classes | plan.linked_classes == set(range(n_classes))
    assert not plan.shared_classes & plan.linked_classes
    k = k_total - 1
    for c in plan.linked_classes:
        assert len(plan.assignment[c]) == 1
    for c in plan.shared_classes:
        assert len(plan.assignment[c]) == k - 1
    for s in plan.source_domains:
        assert any(s not in plan.assignment[c] for c in plan.classes)
