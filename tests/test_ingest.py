"""Caption, prediction, and side-file parsing."""

import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blurbench.imaging import BlurLevel
from blurbench.ingest import (
    BlurFlag,
    FeatureCounts,
    filter_by_blur_flag,
    parse_blur_flags,
    parse_captions,
    parse_feature_counts,
    parse_predictions,
    read_csv,
    write_csv,
)
from conftest import CSV_READS_NUL, feature_counts, feature_rows

FEATURES_HEADER = ["image_id", "level", "count"]
FLAGS_HEADER = ["image_id", "flag"]


def caption_doc(num_images, captions_per_image=1, split="val"):
    return json.dumps({
        "split": split,
        "images": [{"id": f"im{i}", "file_name": f"im{i}.jpg"}
                   for i in range(num_images)],
        "annotations": [
            {"image_id": f"im{i}", "caption": f"caption {j} for image {i}"}
            for i in range(num_images) for j in range(captions_per_image)],
    }).encode()


@pytest.mark.parametrize("value", [None, 7, 2.5, True, ["a dog"],
                                   {"text": "a dog"}])
@pytest.mark.parametrize("parse,record,key", [
    (parse_captions, "images", "file_name"),
    (parse_captions, "annotations", "caption"),
    (parse_predictions, None, "caption"),
])
def test_non_string_text_rejected(parse, record, key, value):
    """Captions and file names are JSON strings; nothing is stringified."""
    if parse is parse_captions:
        doc = json.loads(caption_doc(1))
        item = doc[record][0]
    else:
        doc = [{"image_id": "im0", "blur_level": "MB0", "caption": "a dog"}]
        item = doc[0]
    item[key] = value
    with pytest.raises(ValueError, match=f"{key} must be a string") as excinfo:
        parse(json.dumps(doc).encode())
    assert repr(item) in str(excinfo.value)


#: kind of JSON record -> a record of that kind that parses
GOOD_RECORDS = {
    "image": {"id": "im0", "file_name": "im0.jpg"},
    "annotation": {"image_id": "im0", "caption": "caption 0 for image 0"},
    "prediction": {"image_id": "im0", "blur_level": "MB0", "caption": "a dog"},
}


@pytest.mark.parametrize("kind,record,problem", [
    *(pytest.param(kind, record, "not an object",
                   id=f"{kind}-{json.dumps(record)}")
      for kind in GOOD_RECORDS for record in (None, 1, "x", [])),
    *(pytest.param(kind, {k: v for k, v in good.items() if k != key},
                   f"no {key}", id=f"{kind}-no-{key}")
      for kind, good in GOOD_RECORDS.items() for key in good),
])
def test_record_not_object_or_missing_key_named(kind, record, problem):
    """A record of each kind must be a JSON object holding every field of
    its kind; the error names the record and what is wrong with it."""
    if kind == "prediction":
        parse, doc = parse_predictions, [record]
    else:
        parse, doc = parse_captions, json.loads(caption_doc(1))
        doc["images" if kind == "image" else "annotations"][0] = record
    with pytest.raises(ValueError) as info:
        parse(json.dumps(doc).encode())
    assert str(info.value) == f"bad {kind} record {record!r}: {problem}"


@pytest.mark.parametrize("parse,document", [
    (parse_captions, '{"images": [{"id": %s, "file_name": "a"}], '
                     '"annotations": []}'),
    (parse_predictions, '[{"image_id": %s, "blur_level": "MB0", '
                        '"caption": "a dog"}]'),
], ids=["captions", "predictions"])
def test_integer_past_the_digit_limit_is_malformed_json(parse, document):
    """An integer id longer than Python reads from text is malformed JSON,
    named by its limit and not by the Python call that lifts it."""
    with pytest.raises(ValueError) as info:
        parse((document % ("9" * 5001)).encode())
    text = str(info.value)
    assert text.startswith("malformed JSON: Exceeds the limit (4300")
    assert text.endswith("value has 5001 digits") and "sys." not in text


class TestParseCaptions:
    def test_single_image_five_captions(self):
        ds = parse_captions(caption_doc(1, captions_per_image=5))
        assert ds == {"im0": [f"caption {j} for image 0" for j in range(5)]}

    def test_integer_ids_become_strings(self):
        doc = json.dumps({
            "images": [{"id": 42, "file_name": "x.jpg"}],
            "annotations": [{"image_id": 42, "caption": "a thing"}],
        }).encode()
        assert parse_captions(doc) == {"42": ["a thing"]}

    @pytest.mark.parametrize("split", [None, 7, True, ["val"], {"name": "val"}])
    def test_non_string_split_rejected(self, split):
        with pytest.raises(ValueError, match="split must be a string"):
            parse_captions(caption_doc(1, split=split))

    @pytest.mark.parametrize("bad_id", [None, True, 4.0, [1], {"id": 1}])
    @pytest.mark.parametrize("record", ["images", "annotations"])
    def test_non_string_non_integer_ids_rejected(self, record, bad_id):
        doc = json.loads(caption_doc(1))
        key = "id" if record == "images" else "image_id"
        doc[record][0][key] = bad_id
        with pytest.raises(ValueError, match=f"{key} must be a string or an "
                                             f"integer") as excinfo:
            parse_captions(json.dumps(doc).encode())
        assert repr(doc[record][0]) in str(excinfo.value)

    def test_unknown_image_annotation_rejected(self):
        doc = json.dumps({
            "images": [{"id": "a", "file_name": "a.jpg"}],
            "annotations": [{"image_id": "x", "caption": "stray"}],
        }).encode()
        with pytest.raises(ValueError, match="unknown image"):
            parse_captions(doc)

    def test_image_without_captions_rejected(self):
        doc = json.dumps({
            "images": [{"id": "a", "file_name": "a.jpg"},
                       {"id": "b", "file_name": "b.jpg"}],
            "annotations": [{"image_id": "a", "caption": "only one"}],
        }).encode()
        with pytest.raises(ValueError, match="without captions"):
            parse_captions(doc)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_captions(b"{not json")

    @pytest.mark.parametrize("parse", [parse_captions, parse_predictions])
    def test_deeply_nested_json_rejected(self, parse):
        with pytest.raises(ValueError, match="malformed JSON"):
            parse(b"[" * 100_000)

    def test_duplicate_image_ids_rejected(self):
        doc = json.dumps({
            "images": [{"id": "a", "file_name": "a.jpg"}] * 2,
            "annotations": [{"image_id": "a", "caption": "c"}],
        }).encode()
        with pytest.raises(ValueError, match="duplicate"):
            parse_captions(doc)

    @pytest.mark.parametrize("doc,error", [
        ({"images": [{"id": "a"}], "annotations": [{"image_id": 1.5}]},
         "bad image record {'id': 'a'}: no file_name"),
        ({"images": [{"id": "a", "file_name": "a"}],
          "annotations": [{"image_id": 1.5}], "split": 3},
         "bad annotation record {'image_id': 1.5}: image_id must be a "
         "string or an integer"),
        ({"images": [{"id": "a", "file_name": "a"}] * 2,
          "annotations": [], "split": None}, "split must be a string, not None"),
        ({"images": [{"id": "b", "file_name": "b"}, {"id": "b", "file_name": "c"}],
          "annotations": [{"image_id": "z", "caption": "c"}]},
         "duplicate image ids"),
        ({"images": [{"id": "c", "file_name": "c"}, {"id": "a", "file_name": "a"}],
          "annotations": [{"image_id": "z", "caption": "c"},
                          {"image_id": "b", "caption": "c"}]},
         "references for unknown images: ['b', 'z']"),
        ({"images": [{"id": "c", "file_name": "c"}, {"id": "b", "file_name": "b"},
                     {"id": "a", "file_name": "a"}],
          "annotations": [{"image_id": "b", "caption": "c"}]},
         "images without captions: ['c', 'a']"),
    ], ids=["image-before-annotation", "annotation-before-split",
            "split-before-duplicate", "duplicate-before-unknown",
            "unknown-before-uncaptioned", "uncaptioned-in-image-order"])
    def test_first_check_failed_is_reported(self, doc, error):
        """Each document breaks two rules (the last, one); the error is
        the earlier rule's: records of images, of annotations, the split
        name, then repeated ids, unknown images and uncaptioned images."""
        with pytest.raises(ValueError, match=re.escape(error)) as info:
            parse_captions(json.dumps(doc).encode())
        assert str(info.value) == error

    @pytest.mark.parametrize("annotated,error", [
        ([f"x{i}" for i in range(9, -1, -1)] + ["im0", "im1", "im2"],
         "references for unknown images: ['x0', 'x1', 'x2', 'x3', 'x4'] "
         "and 5 more"),
        (["im3"], "images without captions: ['im0', 'im1', 'im2', 'im4', "
                  "'im5'] and 3 more"),
    ], ids=["unknown", "uncaptioned"])
    def test_long_id_lists_cut_after_five(self, annotated, error):
        """Past 5 ids an error lists the first 5 and the count of the rest."""
        doc = json.loads(caption_doc(9))
        doc["annotations"] = [{"image_id": i, "caption": "c"} for i in annotated]
        with pytest.raises(ValueError) as info:
            parse_captions(json.dumps(doc).encode())
        assert str(info.value) == error

    def test_karpathy_sized_fixture(self):
        ds = parse_captions(caption_doc(5000))
        assert len(ds) == 5000

    def test_vizwiz_sized_fixture(self):
        ds = parse_captions(caption_doc(7542))
        assert len(ds) == 7542

    def test_image_count_equals_reference_keys(self, toy_dataset):
        assert len(toy_dataset) == 10
        assert all(len(refs) == 5 for refs in toy_dataset.values())

    def test_round_trip_idempotent(self, toy_dataset):
        """A document written from a split parses back to it, in its
        image order and each image's reference order."""
        doc = {"images": [{"id": i, "file_name": f"{i}.ppm"}
                          for i in reversed(toy_dataset)],
               "annotations": [{"image_id": i, "caption": refs[k]}
                               for k in range(5) for i, refs in
                               toy_dataset.items()]}
        again = parse_captions(json.dumps(doc).encode())
        assert again == toy_dataset
        assert list(again) == list(reversed(toy_dataset))

    def test_byte_order_mark_dropped(self, data_dir, toy_dataset):
        """A UTF-8 BOM before the document is not JSON text."""
        data = (data_dir / "toy_captions.json").read_bytes()
        assert parse_captions(b"\xef\xbb\xbf" + data) == toy_dataset


class TestParsePredictions:
    def test_single_candidate(self):
        doc = b'[{"image_id": "1", "blur_level": "MB0", "caption": "a dog"}]'
        preds = parse_predictions(doc)
        assert preds == {("1", BlurLevel.MB0): "a dog"}

    def test_duplicate_pair_rejected(self):
        doc = json.dumps([
            {"image_id": "1", "blur_level": "MB0", "caption": "a"},
            {"image_id": "1", "blur_level": "MB0", "caption": "b"},
        ]).encode()
        with pytest.raises(ValueError, match="duplicate"):
            parse_predictions(doc)

    @pytest.mark.parametrize("bad_id", [None, False, 1.5, [], {}])
    def test_non_string_non_integer_ids_rejected(self, bad_id):
        doc = json.dumps([{"image_id": bad_id, "blur_level": "MB0",
                           "caption": "a"}]).encode()
        with pytest.raises(ValueError, match="bad prediction record"):
            parse_predictions(doc)

    def test_integer_ids_become_strings(self):
        doc = b'[{"image_id": 7, "blur_level": "MB0", "caption": "a"}]'
        assert parse_predictions(doc) == {("7", BlurLevel.MB0): "a"}

    def test_non_array_document_rejected(self):
        with pytest.raises(ValueError,
                           match="^prediction document must be a JSON array$"):
            parse_predictions(b"{}")

    def test_unknown_level_rejected(self):
        doc = b'[{"image_id": "1", "blur_level": "MB9", "caption": "a"}]'
        with pytest.raises(ValueError, match="MB9"):
            parse_predictions(doc)

    def test_levels_sorted(self, toy_predictions):
        assert sorted({level for _, level in toy_predictions}) == list(BlurLevel)

    def test_round_trip_idempotent(self, toy_predictions):
        doc = [{"image_id": image_id, "blur_level": level.name,
                "caption": caption}
               for (image_id, level), caption in toy_predictions.items()]
        assert parse_predictions(json.dumps(doc).encode()) == toy_predictions

    def test_byte_order_mark_dropped(self, data_dir, toy_predictions):
        """A UTF-8 BOM before the document is not JSON text."""
        data = (data_dir / "toy_predictions.json").read_bytes()
        assert parse_predictions(b"\xef\xbb\xbf" + data) == toy_predictions


class TestParseFeatureCounts:
    def test_single_record(self):
        records = parse_feature_counts(b"image_id,level,count\n1,MB0,36\n")
        assert records == feature_counts([("1", BlurLevel.MB0, 36)])
        assert len(records) == 1

    def test_value_semantics(self):
        """Equal and hashed by the three columns, which are read-only;
        `len` is the entry count."""
        records = FeatureCounts(image_ids=("a", "b"), levels=b"\0\3",
                                counts=(5, 7))
        same = FeatureCounts(("a", "b"), b"\0\3", (5, 7))
        assert records == same and hash(records) == hash(same)
        assert records != FeatureCounts(("a", "b"), b"\0\2", (5, 7))
        assert records != (("a", "b"), b"\0\3", (5, 7))
        assert len(records) == 2
        for field in ("image_ids", "levels", "counts"):
            with pytest.raises(AttributeError):
                setattr(records, field, ())
        assert pickle.loads(pickle.dumps(records)) == records

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            parse_feature_counts(b"image_id,level,count\n1,MB3,-2\n")

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_feature_counts(b"image_id,level,count\n1,MB0,many\n")

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="unknown blur level"):
            parse_feature_counts(b"image_id,level,count\n1,MB7,3\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_feature_counts(b"1,MB0,36\n")

    def test_one_record_per_level(self):
        doc = b"image_id,level,count\na,MB0,9\na,MB1,8\na,MB2,7\na,MB3,6\n"
        records = parse_feature_counts(doc)
        levels = [level for _, level, _ in feature_rows(records)]
        assert levels == list(BlurLevel)

    def test_repeated_image_and_level_rejected(self):
        doc = b"image_id,level,count\na,MB0,9\nb,MB0,9\na,MB1,8\na,MB0,7\n"
        error = "duplicate feature count for image 'a' at MB0"
        with pytest.raises(ValueError, match=re.escape(error)) as info:
            parse_feature_counts(doc)
        assert str(info.value) == error

    @pytest.mark.parametrize("token", [
        "1_000", " 7", "7 ", "+7", "\u0663", "7.0", "0x1f", "", "-", "--7"])
    def test_count_must_be_ascii_digits(self, token):
        doc = f"image_id,level,count\na,MB0,{token}\n".encode()
        error = f"non-integer count {token!r}"
        with pytest.raises(ValueError, match=re.escape(error)) as info:
            parse_feature_counts(doc)
        assert str(info.value) == error

    def test_count_past_int_digit_limit_is_non_integer(self):
        token = "1" * 5000
        with pytest.raises(ValueError, match="^non-integer count '1111"):
            parse_feature_counts(
                f"image_id,level,count\na,MB0,{token}\n".encode())

    def test_leading_zeros_and_minus_zero_read_as_numbers(self):
        doc = b"image_id,level,count\na,MB0,007\nb,MB0,-0\n"
        assert parse_feature_counts(doc).counts == (7, 0)

    @pytest.mark.parametrize("body,error", [
        ("b,MB9,-2\nc,MB0,x\na,MB0,1", "unknown blur level 'MB9'"),
        ("b,MB1,-2\nc,MB0,x\na,MB0,1", "negative feature count for b"),
        ("b,MB1,2\nc,MB0,x\na,MB0,1", "non-integer count 'x'"),
        ("b,MB1,2\nc,MB0,3\na,MB0,1",
         "duplicate feature count for image 'a' at MB0"),
        ("b,MB9,x", "non-integer count 'x'"),
        ("a,MB9,-1", "unknown blur level 'MB9'"),
    ])
    def test_first_bad_row_named(self, body, error):
        """The first bad row's error; within a row, the count's form, the
        level, the count's sign, then the (image, level) pair."""
        doc = f"image_id,level,count\na,MB0,1\n{body}\n".encode()
        with pytest.raises(ValueError, match=re.escape(error)) as info:
            parse_feature_counts(doc)
        assert str(info.value) == error

    def test_round_trip_idempotent(self, toy_feature_records):
        rows = [[image_id, level.name, count] for image_id, level, count
                in feature_rows(toy_feature_records)]
        data = write_csv(FEATURES_HEADER, rows).encode()
        assert parse_feature_counts(data) == toy_feature_records

    def test_byte_order_mark_dropped(self, data_dir, toy_feature_records):
        """A UTF-8 BOM before the metadata or header line is not text."""
        data = (data_dir / "toy_feature_counts.csv").read_bytes()
        for text in (data, b"# seed=0\n" + data):
            assert parse_feature_counts(b"\xef\xbb\xbf" + text) == \
                toy_feature_records


class TestParseBlurFlags:
    def test_basic(self):
        flags = parse_blur_flags(b"image_id,flag\na,with_blur\nb,no_blur\n")
        assert flags == {"a": BlurFlag.WITH_BLUR, "b": BlurFlag.NO_BLUR}

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown blur flag"):
            parse_blur_flags(b"image_id,flag\na,kind_of_blurry\n")

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_blur_flags(b"image_id,flag\na,with_blur\na,no_blur\n")

    def test_round_trip_idempotent(self, toy_flags):
        rows = [[image_id, flag.value] for image_id, flag in toy_flags.items()]
        data = write_csv(FLAGS_HEADER, rows).encode()
        assert parse_blur_flags(data) == toy_flags

    def test_byte_order_mark_dropped(self, data_dir, toy_flags):
        data = (data_dir / "toy_flags.csv").read_bytes()
        assert parse_blur_flags(b"\xef\xbb\xbf" + data) == toy_flags


def assert_round_trip(parse, header, rows, value, ids):
    """parse(the CSV of `rows`) == value, or a ValueError where csv reads
    no NUL."""
    data = write_csv(header, rows).encode()
    if not CSV_READS_NUL and any("\x00" in i for i in ids):
        with pytest.raises(ValueError, match="NUL"):
            parse(data)
    else:
        assert parse(data) == value


class TestCsvDialect:
    """`read_csv` and `write_csv`: the one CSV dialect of every table."""

    @pytest.mark.parametrize("image_id", [
        "a,b", '"q"', 'say "hi"', "x\ny", "x\r\ny", "x\ry", "\r", "#1", "",
        " padded ", "A\x0cB", "A\x85B", "A\u2028B", "\x1c\x1d\x1e"])
    def test_serializers_round_trip_awkward_ids(self, image_id):
        records = feature_counts([(image_id, BlurLevel.MB2, 7)])
        data = write_csv(FEATURES_HEADER, [[image_id, "MB2", 7]]).encode()
        assert parse_feature_counts(data) == records
        flags = {image_id: BlurFlag.WITH_BLUR, "plain": BlurFlag.NO_BLUR}
        data = write_csv(FLAGS_HEADER, [[image_id, "with_blur"],
                                        ["plain", "no_blur"]]).encode()
        assert parse_blur_flags(data) == flags

    @given(pairs=st.lists(st.tuples(st.text(),
                                    st.sampled_from(list(BlurLevel))),
                          max_size=6, unique=True),
           counts=st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_feature_counts_round_trip_any_id(self, pairs, counts):
        rows = [[image_id, level.name, count]
                for (image_id, level), count in zip(pairs, counts)]
        records = feature_counts(
            (image_id, BlurLevel[level], count) for image_id, level, count in rows)
        assert_round_trip(parse_feature_counts, FEATURES_HEADER, rows, records,
                          [image_id for image_id, _ in pairs])

    @given(flags=st.dictionaries(st.text(), st.sampled_from(list(BlurFlag)),
                                 max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_blur_flags_round_trip_any_id(self, flags):
        rows = [[image_id, flag.value] for image_id, flag in flags.items()]
        assert_round_trip(parse_blur_flags, FLAGS_HEADER, rows, flags, flags)

    def test_metadata_before_header_and_crlf_rows(self):
        text = "# seed=3\r\n#\n\nimage_id,flag\r\n\r\na,with_blur\r\n"
        assert read_csv(text, ["image_id", "flag"]) == [["a"], ["with_blur"]]
        assert parse_blur_flags(text.encode()) == {"a": BlurFlag.WITH_BLUR}

    def test_error_names_the_line_in_the_file(self):
        text = "# seed=0\n\n# more\nimage_id,flag\na,with\rblur\n"
        with pytest.raises(ValueError, match="bad CSV on line 5:"):
            read_csv(text, ["image_id", "flag"])

    def test_columns_one_list_per_header_field(self):
        text = "image_id,level,count\na,MB0,1\nb,MB1,2\n"
        assert read_csv(text, ["image_id", "level", "count"]) == [
            ["a", "b"], ["MB0", "MB1"], ["1", "2"]]
        assert read_csv("image_id,flag\n", ["image_id", "flag"]) == [[], []]

    @pytest.mark.parametrize("text,error", [
        ("image_id,flag\na,with_blur,x\nb,no_blur\nc\n",
         "bad row ['a', 'with_blur', 'x']"),
        ("image_id\na,with_blur,x\n", "expected header 'image_id,flag'"),
        ("", "expected header 'image_id,flag'"),
        ("image_id,flag\na\nb,\"x\ry\"\nc,x\rd\n", "bad CSV on line 4: "),
        ("flag,image_id\na\nc,x\rd\n", "bad CSV on line 3: "),
    ], ids=["first-bad-width-row", "header", "empty",
            "csv-error-after-bad-row", "csv-error-after-bad-header"])
    def test_error_precedence(self, text, error):
        """A csv.Error anywhere comes first, then the header, then the
        first row of the wrong width."""
        with pytest.raises(ValueError, match=re.escape(error)) as info:
            read_csv(text, ["image_id", "flag"])
        assert str(info.value).startswith(error)


class TestFilterByBlurFlag:
    def make(self, n_with, n_without):
        n = n_with + n_without
        ds = parse_captions(caption_doc(n))
        flags = {f"im{i}": (BlurFlag.WITH_BLUR if i < n_with
                            else BlurFlag.NO_BLUR) for i in range(n)}
        return ds, flags

    def test_subset_sizes(self):
        ds, ann = self.make(2, 3)
        assert len(filter_by_blur_flag(ds, ann, BlurFlag.WITH_BLUR)) == 2
        assert len(filter_by_blur_flag(ds, ann, BlurFlag.NO_BLUR)) == 3

    def test_empty_subset_allowed(self):
        ds, ann = self.make(0, 5)
        subset = filter_by_blur_flag(ds, ann, BlurFlag.WITH_BLUR)
        assert subset == {}

    def test_missing_flag_rejected(self):
        ds, _ = self.make(2, 3)
        partial = {"im0": BlurFlag.WITH_BLUR}
        with pytest.raises(ValueError, match="without blur flag"):
            filter_by_blur_flag(ds, partial, BlurFlag.WITH_BLUR)

    def test_partition_disjoint_and_exhaustive(self, toy_dataset, toy_flags):
        with_blur = filter_by_blur_flag(toy_dataset, toy_flags, BlurFlag.WITH_BLUR)
        no_blur = filter_by_blur_flag(toy_dataset, toy_flags, BlurFlag.NO_BLUR)
        assert set(with_blur).isdisjoint(no_blur)
        assert set(with_blur) | set(no_blur) == set(toy_dataset)

    def test_references_carried_over(self, toy_dataset, toy_flags):
        """The subset keeps the split's image order and its references."""
        subset = filter_by_blur_flag(toy_dataset, toy_flags, BlurFlag.WITH_BLUR)
        assert subset == {image_id: refs for image_id, refs in
                          toy_dataset.items()
                          if toy_flags[image_id] is BlurFlag.WITH_BLUR}
        assert list(subset) == [image_id for image_id in toy_dataset
                                if toy_flags[image_id] is BlurFlag.WITH_BLUR]

    def test_vizwiz_scale_split(self):
        # ~4.5K flagged with blur, ~3K without
        ds, ann = self.make(4500, 3042)
        with_blur = filter_by_blur_flag(ds, ann, BlurFlag.WITH_BLUR)
        no_blur = filter_by_blur_flag(ds, ann, BlurFlag.NO_BLUR)
        assert len(with_blur) == 4500
        assert len(no_blur) == 3042
        assert len(with_blur) + len(no_blur) == len(ds)


class TestDatasetInvariants:
    def test_reference_for_unknown_image_rejected(self):
        doc = {"images": [{"id": "a", "file_name": "a.jpg"}],
               "annotations": [{"image_id": image_id, "caption": "x"}
                               for image_id in ("a", "b")]}
        error = "references for unknown images: ['b']"
        with pytest.raises(ValueError, match=re.escape(error)) as info:
            parse_captions(json.dumps(doc).encode())
        assert str(info.value) == error

    def test_negative_feature_count_rejected(self):
        with pytest.raises(ValueError, match="negative feature count for a$"):
            parse_feature_counts(b"image_id,level,count\na,MB0,-1\n")
