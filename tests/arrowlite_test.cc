#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "arrowlite/builder.h"
#include "arrowlite/csv.h"
#include "arrowlite/ipc.h"

namespace mainline::arrowlite {

namespace {

std::shared_ptr<RecordBatch> SampleBatch() {
  ColumnBuilder ids(Type::kInt64);
  ColumnBuilder scores(Type::kFloat64);
  ColumnBuilder names(Type::kString);
  for (int64_t i = 0; i < 100; i++) {
    ids.Append(i);
    if (i % 10 == 0) {
      scores.AppendNull();
    } else {
      scores.Append(static_cast<double>(i) * 1.5);
    }
    if (i % 7 == 0) {
      names.AppendNull();
    } else {
      names.Append("name-" + std::to_string(i));
    }
  }
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"id", Type::kInt64, false}, {"score", Type::kFloat64, true},
      {"name", Type::kString, true}});
  std::vector<std::shared_ptr<Array>> columns{ids.Finish(), scores.Finish(), names.Finish()};
  return std::make_shared<RecordBatch>(schema, 100, std::move(columns));
}

/// Call `f` on every non-null buffer of `array`, its dictionary's included.
template <typename F>
void ForEachBuffer(const Array &array, F f) {
  if (array.validity() != nullptr) f(*array.validity());
  f(*array.buffer(0));
  if (array.type() == Type::kString) f(*array.buffer(1));
  if (array.type() == Type::kDictionary) ForEachBuffer(*array.dictionary(), f);
}

/// Columns under odd-length field names (1, 3 and 5 bytes), so the buffer
/// bodies only land 8-byte aligned if the writer pads them: a fixed column
/// with nulls, a string column and a dictionary column.
std::shared_ptr<RecordBatch> OddNamedBatch() {
  auto sample = SampleBatch();
  ColumnBuilder dict_builder(Type::kString);
  for (const char *word : {"alpha", "beta", "gamma"}) dict_builder.Append(word);
  ColumnBuilder codes(Type::kInt32);
  for (int32_t i = 0; i < 100; i++) codes.Append(i % 3);
  auto words = Array::MakeDictionary(100, codes.Finish()->buffer(0), dict_builder.Finish());
  auto schema = std::make_shared<Schema>(std::vector<Field>{
      {"s", Type::kFloat64, true}, {"nam", Type::kString, true}, {"words", Type::kDictionary}});
  return std::make_shared<RecordBatch>(
      schema, 100, std::vector<std::shared_ptr<Array>>{sample->column(1), sample->column(2),
                                                       std::move(words)});
}

}  // namespace

TEST(ArrowliteTest, BufferAlignmentAndPadding) {
  auto buffer = Buffer::Allocate(13);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer->data()) % 64, 0u);
  EXPECT_EQ(buffer->size(), 13u);
  auto wrapped = Buffer::Wrap(buffer->data(), 13);
  EXPECT_FALSE(wrapped->owned());
  EXPECT_EQ(wrapped->data(), buffer->data());
}

TEST(ArrowliteTest, BuildersTrackNullsAndValues) {
  auto batch = SampleBatch();
  EXPECT_EQ(batch->num_rows(), 100);
  EXPECT_EQ(batch->column(1)->null_count(), 10);
  EXPECT_EQ(batch->column(2)->null_count(), 15);  // 0,7,...,98
  EXPECT_TRUE(batch->column(1)->IsNull(0));
  EXPECT_FALSE(batch->column(1)->IsNull(1));
  EXPECT_DOUBLE_EQ(batch->column(1)->Value<double>(2), 3.0);
  EXPECT_EQ(batch->column(2)->GetString(1), "name-1");
}

TEST(ArrowliteTest, BuilderStoresFixedValuesAtTheirTypesWidth) {
  ColumnBuilder qty(Type::kInt16);
  qty.Append(int16_t{-7});
  qty.AppendNull();
  const int16_t raw = 300;
  qty.Append(reinterpret_cast<const byte *>(&raw));
  const auto array = qty.Finish();
  EXPECT_EQ(array->type(), Type::kInt16);
  EXPECT_EQ(array->length(), 3);
  EXPECT_EQ(array->buffer(0)->size(), 3 * sizeof(int16_t));
  EXPECT_EQ(array->Value<int16_t>(0), -7);
  EXPECT_TRUE(array->IsNull(1));
  EXPECT_EQ(array->Value<int16_t>(1), 0) << "a null stores zeros";
  EXPECT_EQ(array->Value<int16_t>(2), 300);
  EXPECT_EQ(qty.length(), 0) << "Finish leaves the builder empty";
}

/// AppendText parses what ValueText renders, for each type a text client
/// builds: every fixed-width type's text comes back as kInt64 or kFloat64.
TEST(ArrowliteTest, TextAppendParsesValueText) {
  const auto fixed = [](Type type, const auto &values) {
    ColumnBuilder builder(type);
    for (const auto v : values) builder.Append(v);
    return builder.Finish();
  };
  const std::vector<std::pair<std::shared_ptr<Array>, std::vector<std::string>>> cases = {
      {fixed(Type::kBool, std::vector<uint8_t>{0, 1}), {"0", "1"}},
      {fixed(Type::kInt8, std::vector<int8_t>{-128, 127}), {"-128", "127"}},
      {fixed(Type::kInt16, std::vector<int16_t>{-300, 300}), {"-300", "300"}},
      {fixed(Type::kUInt16, std::vector<uint16_t>{65535}), {"65535"}},
      {fixed(Type::kInt32, std::vector<int32_t>{-2147483647 - 1}), {"-2147483648"}},
      {fixed(Type::kUInt32, std::vector<uint32_t>{4000000000u}), {"4000000000"}},
      {fixed(Type::kInt64, std::vector<int64_t>{-5000000000}), {"-5000000000"}},
      {fixed(Type::kUInt64, std::vector<uint64_t>{1234567890123}), {"1234567890123"}},
      {fixed(Type::kFloat64, std::vector<double>{0.25, -1.5}), {"0.250000", "-1.500000"}},
  };
  char buf[kValueTextSize];
  for (const auto &[array, texts] : cases) {
    ColumnBuilder parsed(TextType(array->type()));
    for (int64_t i = 0; i < array->length(); i++) {
      const std::string_view text = ValueText(*array, i, buf);
      EXPECT_EQ(text, texts[static_cast<size_t>(i)]) << TypeToString(array->type());
      parsed.AppendText(text);
    }
    const auto back = parsed.Finish();
    ASSERT_EQ(back->length(), array->length());
    for (int64_t i = 0; i < array->length(); i++) {
      EXPECT_EQ(ValueText(*back, i, buf), texts[static_cast<size_t>(i)])
          << TypeToString(array->type());
    }
  }
  // The widest text fits: "%.6f" of the largest double.
  const auto huge = fixed(Type::kFloat64, std::vector<double>{-1.7976931348623157e308});
  EXPECT_EQ(ValueText(*huge, 0, buf).size(), 317u);

  ColumnBuilder strings(Type::kString);
  strings.AppendText("a,b");
  strings.AppendText("");
  const auto array = strings.Finish();
  EXPECT_EQ(ValueText(*array, 0, buf), "a,b");
  EXPECT_EQ(ValueText(*array, 1, buf), "");
  EXPECT_FALSE(array->IsNull(1));
}

TEST(ArrowliteTest, IpcRoundTrip) {
  auto batch = SampleBatch();
  VectorSink sink;
  IpcStreamWriter writer(&sink, *batch->schema());
  writer.WriteBatch(*batch);
  writer.WriteBatch(*batch);
  writer.Close();

  SpanSource source(sink.data().data(), sink.data().size());
  IpcStreamReader reader(&source);
  ASSERT_TRUE(reader.schema()->Equals(*batch->schema()));
  int batches = 0;
  while (auto read = reader.ReadNext()) {
    EXPECT_TRUE(read->Equals(*batch));
    batches++;
  }
  EXPECT_EQ(batches, 2);
}

/// Landing from a span lends every buffer in place: each one is a
/// non-owning view inside the span (no allocation, no copy), 8-byte aligned
/// because the writer padded its body to an 8-byte stream offset.
TEST(ArrowliteTest, IpcLandsBuffersInPlaceAligned) {
  for (const auto &batch : {SampleBatch(), OddNamedBatch()}) {
    VectorSink sink;
    IpcStreamWriter writer(&sink, *batch->schema());
    writer.WriteBatch(*batch);
    writer.WriteBatch(*batch);
    writer.Close();

    const byte *begin = sink.data().data();
    const byte *end = begin + sink.data().size();
    SpanSource source(begin, sink.data().size());
    IpcStreamReader reader(&source);
    ASSERT_TRUE(reader.schema()->Equals(*batch->schema()));
    int expected_buffers = 0;
    for (int c = 0; c < batch->num_columns(); c++) {
      ForEachBuffer(*batch->column(c), [&](const Buffer &) { expected_buffers++; });
    }
    int batches = 0, buffers = 0;
    while (auto read = reader.ReadNext()) {
      EXPECT_TRUE(read->Equals(*batch));
      for (int c = 0; c < read->num_columns(); c++) {
        ForEachBuffer(*read->column(c), [&](const Buffer &buffer) {
          buffers++;
          EXPECT_FALSE(buffer.owned()) << "column " << c;
          EXPECT_GE(buffer.data(), begin) << "column " << c;
          EXPECT_LE(buffer.data() + buffer.size(), end) << "column " << c;
          EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kBufferAlignment, 0u)
              << "column " << c;
        });
      }
      batches++;
    }
    EXPECT_EQ(batches, 2);
    EXPECT_EQ(buffers, 2 * expected_buffers);
  }
}

/// A stream cut at any byte ends at its last whole batch: the reader never
/// lends past the span or hands out a batch with a missing buffer.
TEST(ArrowliteTest, IpcEndsACutStreamAtItsLastWholeBatch) {
  auto batch = OddNamedBatch();
  VectorSink sink;
  IpcStreamWriter writer(&sink, *batch->schema());
  std::vector<uint64_t> batch_ends;
  for (int i = 0; i < 2; i++) {
    writer.WriteBatch(*batch);
    batch_ends.push_back(sink.data().size());
  }
  writer.Close();

  for (uint64_t cut = 0; cut <= sink.data().size(); cut++) {
    SpanSource source(sink.data().data(), cut);
    IpcStreamReader reader(&source);
    int batches = 0;
    while (auto read = reader.ReadNext()) {
      EXPECT_TRUE(read->Equals(*batch)) << "cut at " << cut;
      batches++;
    }
    int whole = 0;
    for (const uint64_t end : batch_ends) whole += end <= cut ? 1 : 0;
    EXPECT_EQ(batches, whole) << "cut at " << cut;
  }
}

/// A corrupt stream ends where a cut one does, at its last whole batch, in
/// every build: here the second batch's message marker is any byte but 'B'.
TEST(ArrowliteTest, IpcEndsAStreamWithACorruptMarkerAtItsLastWholeBatch) {
  auto batch = OddNamedBatch();
  VectorSink sink;
  IpcStreamWriter writer(&sink, *batch->schema());
  writer.WriteBatch(*batch);
  const uint64_t second_marker = sink.data().size();
  writer.WriteBatch(*batch);
  writer.Close();
  ASSERT_EQ(static_cast<char>(sink.data()[second_marker]), 'B');

  for (int marker = 0; marker < 256; marker++) {
    if (static_cast<char>(marker) == 'B') continue;
    std::vector<byte> corrupt = sink.data();
    corrupt[second_marker] = static_cast<byte>(marker);
    SpanSource source(corrupt.data(), corrupt.size());
    IpcStreamReader reader(&source);
    auto first = reader.ReadNext();
    ASSERT_NE(first, nullptr) << "marker " << marker;
    EXPECT_TRUE(first->Equals(*batch));
    EXPECT_EQ(reader.ReadNext(), nullptr) << "marker " << marker;
    EXPECT_EQ(reader.ReadNext(), nullptr) << "marker " << marker;
  }
}

/// A column type byte that names no Type ends the stream at the last whole
/// batch instead of reaching Array::MakeFixed.
TEST(ArrowliteTest, IpcEndsAStreamWithAnUnknownTypeAtItsLastWholeBatch) {
  auto batch = OddNamedBatch();
  VectorSink sink;
  IpcStreamWriter writer(&sink, *batch->schema());
  writer.WriteBatch(*batch);
  // 'B', then the u64 row count, then the first column's type byte.
  const uint64_t type_byte = sink.data().size() + 1 + sizeof(uint64_t);
  writer.WriteBatch(*batch);
  writer.Close();
  ASSERT_EQ(static_cast<Type>(sink.data()[type_byte]), batch->column(0)->type());

  for (int type = static_cast<int>(Type::kDictionary) + 1; type < 256; type++) {
    std::vector<byte> corrupt = sink.data();
    corrupt[type_byte] = static_cast<byte>(type);
    SpanSource source(corrupt.data(), corrupt.size());
    IpcStreamReader reader(&source);
    auto first = reader.ReadNext();
    ASSERT_NE(first, nullptr) << "type " << type;
    EXPECT_TRUE(first->Equals(*batch));
    EXPECT_EQ(reader.ReadNext(), nullptr) << "type " << type;
    EXPECT_EQ(reader.ReadNext(), nullptr) << "type " << type;
  }
}

TEST(ArrowliteTest, IpcDictionaryRoundTrip) {
  // Dictionary array: 3 words, 6 rows.
  ColumnBuilder dict_builder(Type::kString);
  dict_builder.Append("alpha");
  dict_builder.Append("beta");
  dict_builder.Append("gamma");
  auto dictionary = dict_builder.Finish();
  ColumnBuilder codes(Type::kInt32);
  for (const int32_t c : {0, 1, 2, 2, 1, 0}) codes.Append(c);
  auto codes_array = codes.Finish();
  auto dict_array = Array::MakeDictionary(6, codes_array->buffer(0), dictionary);
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"word", Type::kDictionary}});
  RecordBatch batch(schema, 6, {dict_array});

  VectorSink sink;
  IpcStreamWriter writer(&sink, *schema);
  writer.WriteBatch(batch);
  writer.Close();
  SpanSource source(sink.data().data(), sink.data().size());
  IpcStreamReader reader(&source);
  auto read = reader.ReadNext();
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->column(0)->GetString(0), "alpha");
  EXPECT_EQ(read->column(0)->GetString(3), "gamma");
  EXPECT_TRUE(read->Equals(batch));
}

TEST(ArrowliteTest, DictionaryEqualsResolvedString) {
  // A dictionary-encoded array compares equal to its plain-string expansion.
  ColumnBuilder plain(Type::kString);
  for (const char *w : {"x", "yy", "zzz", "zzz"}) plain.Append(w);
  auto plain_array = plain.Finish();

  ColumnBuilder dict_builder(Type::kString);
  dict_builder.Append("x");
  dict_builder.Append("yy");
  dict_builder.Append("zzz");
  ColumnBuilder codes(Type::kInt32);
  for (const int32_t c : {0, 1, 2, 2}) codes.Append(c);
  auto encoded = Array::MakeDictionary(4, codes.Finish()->buffer(0), dict_builder.Finish());
  EXPECT_TRUE(plain_array->Equals(*encoded));
  EXPECT_TRUE(encoded->Equals(*plain_array));
}

TEST(ArrowliteTest, CsvRoundTrip) {
  auto batch = SampleBatch();
  std::stringstream stream;
  const uint64_t bytes = Csv::WriteBatch(*batch, &stream);
  EXPECT_GT(bytes, 0u);
  auto read = Csv::ReadBatch(batch->schema(), &stream);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->num_rows(), batch->num_rows());
  // CSV widens ints and loses null-vs-empty-string for strings; check values.
  for (int64_t i = 0; i < batch->num_rows(); i++) {
    EXPECT_EQ(read->column(0)->Value<int64_t>(i), i);
    if (!batch->column(1)->IsNull(i)) {
      EXPECT_NEAR(read->column(1)->Value<double>(i), static_cast<double>(i) * 1.5, 1e-6);
    }
    if (!batch->column(2)->IsNull(i)) {
      EXPECT_EQ(read->column(2)->GetString(i), "name-" + std::to_string(i));
    }
  }
}

/// A CSV round trip is ValueText out and AppendText back in: every column
/// returns as its TextType, with the same text, and nulls survive except
/// under strings (CSV has no null string).
TEST(ArrowliteTest, CsvRoundTripKeepsEveryTypesText) {
  ColumnBuilder small(Type::kInt16);
  ColumnBuilder date(Type::kUInt32);
  ColumnBuilder dict_values(Type::kString);
  for (const char *w : {"p", "q,r"}) dict_values.Append(w);
  ColumnBuilder codes(Type::kInt32);
  for (int32_t i = 0; i < 20; i++) {
    if (i % 4 == 0) {
      small.AppendNull();
    } else {
      small.Append(static_cast<int16_t>(i * -100));
    }
    date.Append(static_cast<uint32_t>(20200101 + i));
    codes.Append(i % 2);
  }
  auto sample = SampleBatch();
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"small", Type::kInt16}, {"date", Type::kUInt32},
                         {"word", Type::kDictionary}, {"score", Type::kFloat64},
                         {"name", Type::kString}});
  RecordBatch batch(schema, 20,
                    {small.Finish(), date.Finish(),
                     Array::MakeDictionary(20, codes.Finish()->buffer(0), dict_values.Finish()),
                     sample->column(1), sample->column(2)});

  std::stringstream stream;
  Csv::WriteBatch(batch, &stream);
  auto read = Csv::ReadBatch(schema, &stream);
  ASSERT_NE(read, nullptr);
  ASSERT_EQ(read->num_rows(), 20);
  char want[kValueTextSize];
  char got[kValueTextSize];
  for (int c = 0; c < batch.num_columns(); c++) {
    const Array &original = *batch.column(c);
    const Array &back = *read->column(c);
    EXPECT_EQ(back.type(), TextType(original.type()));
    EXPECT_EQ(read->schema()->field(c).type(), back.type());
    for (int64_t i = 0; i < 20; i++) {
      if (original.IsNull(i)) {
        EXPECT_TRUE(back.type() == Type::kString || back.IsNull(i)) << c << "/" << i;
        continue;
      }
      ASSERT_FALSE(back.IsNull(i)) << c << "/" << i;
      EXPECT_EQ(ValueText(back, i, got), ValueText(original, i, want)) << c << "/" << i;
    }
  }
}

TEST(ArrowliteTest, CsvLineShortOfFieldsReadsThemAsEmpty) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", Type::kInt64}, {"b", Type::kInt64}, {"s", Type::kString}});
  std::stringstream stream("a,b,s\n1\n2,3,x\n");
  auto read = Csv::ReadBatch(schema, &stream);
  ASSERT_EQ(read->num_rows(), 2);
  EXPECT_EQ(read->column(0)->Value<int64_t>(0), 1);
  EXPECT_TRUE(read->column(1)->IsNull(0));
  EXPECT_EQ(read->column(2)->GetString(0), "");
  EXPECT_EQ(read->column(1)->Value<int64_t>(1), 3);
  EXPECT_EQ(read->column(2)->GetString(1), "x");
}

TEST(ArrowliteTest, CsvQuoting) {
  ColumnBuilder values(Type::kString);
  values.Append("plain");
  values.Append("with,comma");
  values.Append("with\"quote");
  auto schema = std::make_shared<Schema>(std::vector<Field>{{"s", Type::kString}});
  RecordBatch batch(schema, 3, {values.Finish()});
  std::stringstream stream;
  Csv::WriteBatch(batch, &stream);
  auto read = Csv::ReadBatch(schema, &stream);
  EXPECT_EQ(read->column(0)->GetString(0), "plain");
  EXPECT_EQ(read->column(0)->GetString(1), "with,comma");
  EXPECT_EQ(read->column(0)->GetString(2), "with\"quote");
}

}  // namespace mainline::arrowlite
