#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ldlp::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v, bool integral) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; emit null.
    out += "null";
    return;
  }
  char buf[32];
  if (integral || (v == std::floor(v) && std::fabs(v) < 1e15)) {
    const auto n = static_cast<long long>(v);
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, n);
    out.append(buf, p);
    return;
  }
  // Shortest representation that round-trips the exact double.
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, p);
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error{};

  [[nodiscard]] bool fail(const std::string& what) {
    if (error.empty())
      error = what + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("bad escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape");
            }
            // The metrics schema is ASCII; encode BMP points as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out = Json::object();
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      for (;;) {
        std::string key;
        if (!parse_string(key)) return false;
        if (!consume(':')) return false;
        Json value;
        if (!parse_value(value)) return false;
        out.set(key, std::move(value));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          skip_ws();
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out = Json::array();
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        Json value;
        if (!parse_value(value)) return false;
        out.push_back(std::move(value));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      out = Json(true);
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      out = Json(false);
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      out = Json();
      return true;
    }
    // Number.
    double value = 0.0;
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || p == begin) return fail("bad number");
    pos = static_cast<std::size_t>(p - text.data());
    out = Json(value);
    return true;
  }
};

}  // namespace

void Json::set(std::string_view key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
}

const Json* Json::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> Json::number_at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_double();
}

std::optional<std::string> Json::string_at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->as_string();
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, num_, integral_); break;
    case Type::kString: append_escaped(out, str_); break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += indent > 0 ? "," : ", ";
        newline_pad(depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += indent > 0 ? "," : ", ";
        newline_pad(depth + 1);
        append_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser parser{text};
  Json out;
  if (!parser.parse_value(out)) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error != nullptr)
      *error = "trailing garbage at offset " + std::to_string(parser.pos);
    return std::nullopt;
  }
  return out;
}

}  // namespace ldlp::obs
