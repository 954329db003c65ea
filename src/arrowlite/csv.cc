#include "arrowlite/csv.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arrowlite/builder.h"

namespace mainline::arrowlite {

namespace {

void WriteEscaped(std::string_view value, std::ostream *out) {
  if (value.find_first_of(",\"\n") == std::string_view::npos) {
    out->write(value.data(), static_cast<std::streamsize>(value.size()));
    return;
  }
  out->put('"');
  for (const char c : value) {
    if (c == '"') out->put('"');
    out->put(c);
  }
  out->put('"');
}

/// Split one CSV line into fields, handling quoted values.
std::vector<std::string> SplitLine(const std::string &line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); i++) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i++;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace

uint64_t Csv::WriteBatch(const RecordBatch &batch, std::ostream *out, bool header) {
  const auto start = out->tellp();
  const Schema &schema = *batch.schema();
  char text[kValueTextSize];
  if (header) {
    for (int c = 0; c < schema.num_fields(); c++) {
      if (c > 0) out->put(',');
      *out << schema.field(c).name();
    }
    out->put('\n');
  }
  for (int64_t row = 0; row < batch.num_rows(); row++) {
    for (int c = 0; c < batch.num_columns(); c++) {
      if (c > 0) out->put(',');
      const Array &array = *batch.column(c);
      if (array.IsNull(row)) continue;
      const std::string_view value = ValueText(array, row, text);
      if (TypeWidth(array.type()) == 0) {  // only strings can hold a separator
        WriteEscaped(value, out);
      } else {
        out->write(value.data(), static_cast<std::streamsize>(value.size()));
      }
    }
    out->put('\n');
  }
  return static_cast<uint64_t>(out->tellp() - start);
}

std::shared_ptr<RecordBatch> Csv::ReadBatch(const std::shared_ptr<Schema> &schema,
                                            std::istream *in) {
  // CSV erases type fidelity: integers come back as int64, as a Pandas-style
  // reader would build them. An empty field is a null, except under a string
  // column.
  std::vector<Field> out_fields;
  std::vector<ColumnBuilder> builders;
  for (const Field &field : schema->fields()) {
    const Type type = TextType(field.type());
    out_fields.emplace_back(field.name(), type);
    builders.emplace_back(type);
  }

  std::string line;
  std::getline(*in, line);  // header
  int64_t num_rows = 0;
  while (std::getline(*in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitLine(line);
    for (size_t c = 0; c < builders.size(); c++) {
      // A line short of fields reads as empty ones.
      const std::string_view text = c < fields.size() ? fields[c] : std::string_view();
      if (text.empty() && builders[c].type() != Type::kString) {
        builders[c].AppendNull();
      } else {
        builders[c].AppendText(text);
      }
    }
    num_rows++;
  }

  std::vector<std::shared_ptr<Array>> columns;
  for (ColumnBuilder &builder : builders) columns.push_back(builder.Finish());
  return std::make_shared<RecordBatch>(std::make_shared<Schema>(std::move(out_fields)),
                                       num_rows, std::move(columns));
}

}  // namespace mainline::arrowlite
