#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace famtree {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  // Printable ASCII is never whitespace, so text that starts and ends with
  // it (most CSV cells) is returned without a locale lookup.
  auto printable = [](char c) { return c > ' ' && c < 0x7f; };
  if (!s.empty() && printable(s.front()) && printable(s.back())) return s;
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseInt64(std::string_view s, long long* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // Up to 18 digits cannot overflow: sum them here, as from_chars would.
  size_t i = s[0] == '-', neg = i;
  long long v = 0;
  for (; i < s.size() && i < neg + 18 && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + (s[i] - '0');
  }
  if (i == s.size() && i > neg) {
    *out = neg ? -v : v;
    return true;
  }
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // strtod (hex, inf, nan, a leading '+') needs a NUL-terminated copy; a
  // token can only start with one of these, so other text skips the copy.
  if (std::strchr("+-.0123456789iInN", s[0]) == nullptr) return false;
  char small[64] = {};
  std::string large;
  const char* buf = small;
  if (s.size() < sizeof(small)) {
    std::memcpy(small, s.data(), s.size());
  } else {
    buf = (large = std::string(s)).c_str();
  }
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + s.size();
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string PadRight(std::string_view s, size_t width) {
  std::string out(s.substr(0, width));
  while (out.size() < width) out += ' ';
  return out;
}

std::string PadLeft(std::string_view s, size_t width) {
  std::string out(s.substr(0, width));
  while (out.size() < width) out.insert(out.begin(), ' ');
  return out;
}

}  // namespace famtree
