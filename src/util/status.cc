#include "wdsparql/status.h"

namespace wdsparql {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotWellDesigned:
      return "NotWellDesigned";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace wdsparql
