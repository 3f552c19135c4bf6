#include "amoeba/common/error.hpp"

#include <cstdio>

#include "amoeba/common/types.hpp"

namespace amoeba {

const char* error_name(ErrorCode e) {
  switch (e) {
    case ErrorCode::ok: return "ok";
    case ErrorCode::bad_capability: return "bad_capability";
    case ErrorCode::permission_denied: return "permission_denied";
    case ErrorCode::no_such_object: return "no_such_object";
    case ErrorCode::no_such_operation: return "no_such_operation";
    case ErrorCode::no_such_port: return "no_such_port";
    case ErrorCode::timeout: return "timeout";
    case ErrorCode::exists: return "exists";
    case ErrorCode::not_found: return "not_found";
    case ErrorCode::no_space: return "no_space";
    case ErrorCode::insufficient_funds: return "insufficient_funds";
    case ErrorCode::bad_currency: return "bad_currency";
    case ErrorCode::conflict: return "conflict";
    case ErrorCode::immutable: return "immutable";
    case ErrorCode::not_empty: return "not_empty";
    case ErrorCode::invalid_argument: return "invalid_argument";
    case ErrorCode::unsealing_failed: return "unsealing_failed";
    case ErrorCode::internal: return "internal";
    case ErrorCode::restarted: return "restarted";
  }
  return "unknown_error";
}

std::string to_string(ErrorCode e) { return error_name(e); }

namespace {
std::string hex48(std::uint64_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%012llx",
                static_cast<unsigned long long>(v));
  return buf;
}
}  // namespace

std::string to_string(Port p) { return "port:" + hex48(p.value()); }

std::string to_string(ObjectNumber o) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "obj:%06x", o.value());
  return buf;
}

std::string to_string(Rights r) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "rights:%02x", r.bits());
  return buf;
}

std::string to_string(CheckField c) { return "check:" + hex48(c.value()); }

std::string to_string(MachineId m) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "machine:%u", m.value());
  return buf;
}

}  // namespace amoeba
