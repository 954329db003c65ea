#include "arrowlite/array.h"

#include <charconv>
#include <cstdio>
#include <cstring>

namespace mainline::arrowlite {

const char *TypeToString(Type type) {
  switch (type) {
    case Type::kBool:
      return "bool";
    case Type::kInt8:
      return "int8";
    case Type::kInt16:
      return "int16";
    case Type::kInt32:
      return "int32";
    case Type::kInt64:
      return "int64";
    case Type::kUInt8:
      return "uint8";
    case Type::kUInt16:
      return "uint16";
    case Type::kUInt32:
      return "uint32";
    case Type::kUInt64:
      return "uint64";
    case Type::kFloat64:
      return "float64";
    case Type::kString:
      return "string";
    case Type::kDictionary:
      return "dictionary<string>";
  }
  return "unknown";
}

std::string Schema::ToString() const {
  std::string result;
  for (const Field &f : fields_) {
    if (!result.empty()) result += ", ";
    result += f.name();
    result += ": ";
    result += TypeToString(f.type());
    if (f.nullable()) result += "?";
  }
  return result;
}

bool Array::Equals(const Array &other) const {
  if (length_ != other.length_) return false;
  // Dictionary arrays compare by resolved values so that a gathered and a
  // dictionary-compressed export of the same data compare equal.
  const bool varlen = type_ == Type::kString || type_ == Type::kDictionary;
  const bool other_varlen = other.type_ == Type::kString || other.type_ == Type::kDictionary;
  if (varlen != other_varlen) return false;
  if (!varlen && type_ != other.type_) return false;
  for (int64_t i = 0; i < length_; i++) {
    const bool null = IsNull(i);
    if (null != other.IsNull(i)) return false;
    if (null) continue;
    if (varlen) {
      if (GetString(i) != other.GetString(i)) return false;
    } else {
      const uint32_t width = TypeWidth(type_);
      if (std::memcmp(buffers_[0]->data() + i * width, other.buffers_[0]->data() + i * width,
                      width) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool RecordBatch::Equals(const RecordBatch &other) const {
  if (num_rows_ != other.num_rows_ || num_columns() != other.num_columns()) return false;
  for (int i = 0; i < num_columns(); i++) {
    if (!columns_[static_cast<size_t>(i)]->Equals(*other.column(i))) return false;
  }
  return true;
}

namespace {

template <typename T>
std::string_view IntegerText(T value, char (&buf)[kValueTextSize]) {
  const char *end = std::to_chars(buf, buf + kValueTextSize, value).ptr;
  return {buf, static_cast<size_t>(end - buf)};
}

}  // namespace

std::string_view ValueText(const Array &array, int64_t i, char (&buf)[kValueTextSize]) {
  switch (array.type()) {
    case Type::kBool:
    case Type::kUInt8:
      return IntegerText(array.Value<uint8_t>(i), buf);
    case Type::kInt8:
      return IntegerText(array.Value<int8_t>(i), buf);
    case Type::kInt16:
      return IntegerText(array.Value<int16_t>(i), buf);
    case Type::kUInt16:
      return IntegerText(array.Value<uint16_t>(i), buf);
    case Type::kInt32:
      return IntegerText(array.Value<int32_t>(i), buf);
    case Type::kUInt32:
      return IntegerText(array.Value<uint32_t>(i), buf);
    case Type::kInt64:
      return IntegerText(array.Value<int64_t>(i), buf);
    case Type::kUInt64:
      return IntegerText(array.Value<uint64_t>(i), buf);
    case Type::kFloat64: {
      const int len = std::snprintf(buf, kValueTextSize, "%.6f", array.Value<double>(i));
      return {buf, static_cast<size_t>(len)};
    }
    case Type::kString:
    case Type::kDictionary:
      return array.GetString(i);
  }
  MAINLINE_UNREACHABLE("unknown type");
}

}  // namespace mainline::arrowlite
