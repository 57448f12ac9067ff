#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace calcite {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kValidationError:
      return "ValidationError";
    case StatusCode::kPlanError:
      return "PlanError";
    case StatusCode::kRuntimeError:
      return "RuntimeError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string result = StatusCodeName(code_);
  result += ": ";
  result += message_;
  return result;
}

void AbortOnErrorValue(const Status& status) {
  std::fprintf(stderr, "Result::value() called on an error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace calcite
