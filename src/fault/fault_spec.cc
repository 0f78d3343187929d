#include "fault/fault_spec.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/parse.h"

namespace dmac {

namespace {

Status CheckProb(const char* name, double v) {
  if (!(v >= 0 && v <= 1)) {  // also rejects NaN
    return Status::Invalid(std::string(name) + " must be in [0, 1], got " +
                           std::to_string(v));
  }
  return Status::Ok();
}

bool IsFiniteNonNegative(double v) { return std::isfinite(v) && v >= 0; }

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

Status ParseBool(const std::string& key, const std::string& value,
                 bool* out) {
  if (value == "true" || value == "1") {
    *out = true;
    return Status::Ok();
  }
  if (value == "false" || value == "0") {
    *out = false;
    return Status::Ok();
  }
  return Status::Invalid(key + ": expected true/false, got '" + value + "'");
}

}  // namespace

Status NetFaultSpec::Validate() const {
  DMAC_RETURN_NOT_OK(CheckProb("net_drop_prob", drop_prob));
  DMAC_RETURN_NOT_OK(CheckProb("net_dup_prob", dup_prob));
  DMAC_RETURN_NOT_OK(CheckProb("net_reorder_prob", reorder_prob));
  DMAC_RETURN_NOT_OK(CheckProb("net_delay_prob", delay_prob));
  DMAC_RETURN_NOT_OK(CheckProb("net_partition_prob", partition_prob));
  if (!IsFiniteNonNegative(delay_seconds)) {
    return Status::Invalid("net_delay_seconds must be finite and >= 0");
  }
  if (partition_drops < 1) {
    return Status::Invalid("net_partition_drops must be >= 1");
  }
  return Status::Ok();
}

Status DiskFaultSpec::Validate() const {
  DMAC_RETURN_NOT_OK(CheckProb("disk_short_write_prob", short_write_prob));
  DMAC_RETURN_NOT_OK(CheckProb("disk_read_flip_prob", read_flip_prob));
  DMAC_RETURN_NOT_OK(CheckProb("disk_enospc_prob", enospc_prob));
  DMAC_RETURN_NOT_OK(CheckProb("disk_fsync_fail_prob", fsync_fail_prob));
  if (crash_at != -1 && crash_at < 1) {
    return Status::Invalid("crash_at must be >= 1 (write points are "
                           "1-based) or -1 to disable, got " +
                           std::to_string(crash_at));
  }
  return Status::Ok();
}

Status FaultSpec::Validate() const {
  DMAC_RETURN_NOT_OK(CheckProb("crash_prob", crash_prob));
  DMAC_RETURN_NOT_OK(CheckProb("lost_block_prob", lost_block_prob));
  DMAC_RETURN_NOT_OK(CheckProb("corrupt_prob", corrupt_prob));
  DMAC_RETURN_NOT_OK(CheckProb("transient_prob", transient_prob));
  DMAC_RETURN_NOT_OK(CheckProb("straggler_prob", straggler_prob));
  if (!IsFiniteNonNegative(straggler_delay_seconds)) {
    return Status::Invalid("straggler_delay_seconds must be finite and >= 0");
  }
  if (max_retries < 0) {
    return Status::Invalid("max_retries must be >= 0");
  }
  DMAC_RETURN_NOT_OK(CheckProb("death_prob", death_prob));
  if (death_step >= 0 && death_worker < 0) {
    return Status::Invalid("death_worker must be >= 0");
  }
  DMAC_RETURN_NOT_OK(disk.Validate());
  return net.Validate();
}

Result<FaultSpec> ParseFaultSpec(const std::string& text) {
  FaultSpec spec;
  spec.enabled = true;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("fault spec line " + std::to_string(lineno) +
                             ": expected 'key = value', got '" + line + "'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key == "enabled") {
      DMAC_RETURN_NOT_OK(ParseBool(key, value, &spec.enabled));
    } else if (key == "seed") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.seed));
    } else if (key == "crash_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.crash_prob));
    } else if (key == "lost_block_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.lost_block_prob));
    } else if (key == "corrupt_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.corrupt_prob));
    } else if (key == "transient_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.transient_prob));
    } else if (key == "straggler_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.straggler_prob));
    } else if (key == "straggler_delay_seconds") {
      DMAC_RETURN_NOT_OK(
          ParseDouble(key, value, &spec.straggler_delay_seconds));
    } else if (key == "max_retries") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.max_retries));
    } else if (key == "permanent_fail_step") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.permanent_fail_step));
    } else if (key == "death_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.death_prob));
    } else if (key == "death_step") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.death_step));
    } else if (key == "death_worker") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.death_worker));
    } else if (key == "death_in_flight") {
      DMAC_RETURN_NOT_OK(ParseBool(key, value, &spec.death_in_flight));
    } else if (key == "net_drop_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.net.drop_prob));
    } else if (key == "net_dup_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.net.dup_prob));
    } else if (key == "net_reorder_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.net.reorder_prob));
    } else if (key == "net_delay_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.net.delay_prob));
    } else if (key == "net_delay_seconds") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.net.delay_seconds));
    } else if (key == "net_partition_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.net.partition_prob));
    } else if (key == "net_partition_drops") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.net.partition_drops));
    } else if (key == "disk_short_write_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.disk.short_write_prob));
    } else if (key == "disk_read_flip_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.disk.read_flip_prob));
    } else if (key == "disk_enospc_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.disk.enospc_prob));
    } else if (key == "disk_fsync_fail_prob") {
      DMAC_RETURN_NOT_OK(ParseDouble(key, value, &spec.disk.fsync_fail_prob));
    } else if (key == "crash_at") {
      DMAC_RETURN_NOT_OK(ParseInt(key, value, &spec.disk.crash_at));
    } else if (key == "crash_soft") {
      DMAC_RETURN_NOT_OK(ParseBool(key, value, &spec.disk.crash_soft));
    } else {
      return Status::Invalid("fault spec line " + std::to_string(lineno) +
                             ": unknown key '" + key + "'");
    }
  }
  DMAC_RETURN_NOT_OK(spec.Validate());
  return spec;
}

Result<FaultSpec> LoadFaultSpecFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open fault spec " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseFaultSpec(buffer.str());
}

}  // namespace dmac
