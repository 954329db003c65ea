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
  FixedBuilder<int64_t> ids(Type::kInt64);
  FixedBuilder<double> scores(Type::kFloat64);
  StringBuilder names;
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
  StringBuilder dict_builder;
  for (const char *word : {"alpha", "beta", "gamma"}) dict_builder.Append(word);
  FixedBuilder<int32_t> codes(Type::kInt32);
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
  StringBuilder dict_builder;
  dict_builder.Append("alpha");
  dict_builder.Append("beta");
  dict_builder.Append("gamma");
  auto dictionary = dict_builder.Finish();
  FixedBuilder<int32_t> codes(Type::kInt32);
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
  StringBuilder plain;
  for (const char *w : {"x", "yy", "zzz", "zzz"}) plain.Append(w);
  auto plain_array = plain.Finish();

  StringBuilder dict_builder;
  dict_builder.Append("x");
  dict_builder.Append("yy");
  dict_builder.Append("zzz");
  FixedBuilder<int32_t> codes(Type::kInt32);
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

TEST(ArrowliteTest, CsvQuoting) {
  StringBuilder values;
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
