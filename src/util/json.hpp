// Minimal streaming JSON writer shared by the observability subsystem
// (Chrome-trace flush, telemetry snapshots), the bench --json output and the
// odq_profile report. Handles comma placement and string escaping; the
// caller is responsible for structural balance (asserted in debug builds).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace odq::util {

class JsonWriter {
 public:
  JsonWriter() = default;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  // Object member key; must be followed by exactly one value/container.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v);
  void value(double v);  // non-finite values are emitted as null
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void value_null();

  // key + scalar value in one call.
  template <typename T>
  void kv(const std::string& k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma_for_value();
  void open(char c);
  void close(char c);

  std::string out_;
  // One frame per open container: true once the first element was written.
  std::vector<bool> has_elem_;
  bool after_key_ = false;
};

// Escape `s` into a double-quoted JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace odq::util
