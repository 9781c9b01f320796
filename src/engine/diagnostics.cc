#include "wdsparql/diagnostics.h"

namespace wdsparql {

const char* DiagnosticsCodeToString(QueryDiagnostics::Code code) {
  switch (code) {
    case QueryDiagnostics::Code::kOk: return "OK";
    case QueryDiagnostics::Code::kParseError: return "ParseError";
    case QueryDiagnostics::Code::kNotWellDesigned: return "NotWellDesigned";
    case QueryDiagnostics::Code::kUnsupported: return "Unsupported";
    case QueryDiagnostics::Code::kInvalidProjection: return "InvalidProjection";
    case QueryDiagnostics::Code::kCancelled: return "Cancelled";
    case QueryDiagnostics::Code::kDeadlineExceeded: return "DeadlineExceeded";
    case QueryDiagnostics::Code::kInternal: return "Internal";
  }
  return "Unknown";
}

std::string QueryDiagnostics::ToString() const {
  if (ok()) return "OK";
  std::string out = DiagnosticsCodeToString(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  if (!offending_variable.empty()) {
    out += " [offending variable " + offending_variable + "]";
  }
  return out;
}

}  // namespace wdsparql
