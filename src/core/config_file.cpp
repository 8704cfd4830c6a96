#include "core/config_file.hpp"

#include <algorithm>
#include <limits>

#include "util/contract.hpp"
#include "util/strings.hpp"

namespace soda::core {

Status ServiceConfigFile::add(const BackEndEntry& entry) {
  SODA_EXPECTS(entry.port > 0 && entry.capacity >= 1);
  // Keyed by (address, port): proxied components of a partitioned service
  // legitimately share their host's public address on different ports.
  const bool exists =
      std::any_of(entries_.begin(), entries_.end(), [&](const BackEndEntry& e) {
        return e.address == entry.address && e.port == entry.port;
      });
  if (exists) {
    return Error{"backend already present: " + entry.address.to_string() + ":" +
                 std::to_string(entry.port)};
  }
  entries_.push_back(entry);
  return {};
}

Status ServiceConfigFile::remove(net::Ipv4Address address) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const BackEndEntry& e) { return e.address == address; });
  if (it == entries_.end()) {
    return Error{"no backend " + address.to_string()};
  }
  entries_.erase(it);
  return {};
}

Status ServiceConfigFile::set_capacity(net::Ipv4Address address, int capacity) {
  SODA_EXPECTS(capacity >= 1);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const BackEndEntry& e) { return e.address == address; });
  if (it == entries_.end()) {
    return Error{"no backend " + address.to_string()};
  }
  it->capacity = capacity;
  return {};
}

int ServiceConfigFile::total_capacity() const noexcept {
  int total = 0;
  for (const auto& entry : entries_) total += entry.capacity;
  return total;
}

std::string ServiceConfigFile::serialize() const {
  std::string out;
  for (const auto& entry : entries_) {
    out += "BackEnd " + entry.address.to_string() + " " +
           std::to_string(entry.port) + " " + std::to_string(entry.capacity);
    if (!entry.component.empty()) out += " " + entry.component;
    out += "\n";
  }
  return out;
}

Result<ServiceConfigFile> ServiceConfigFile::parse(std::string_view text) {
  constexpr long long kMaxCapacity = std::numeric_limits<int>::max();
  ServiceConfigFile file;
  long long total = 0;
  int line_number = 0;
  for (const auto& raw_line : util::split(text, '\n')) {
    ++line_number;
    const auto fail = [&](const std::string& message) {
      return Error{"line " + std::to_string(line_number) + ": " + message};
    };
    const std::string_view line = util::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = util::split_whitespace(line);
    if ((fields.size() != 4 && fields.size() != 5) || fields[0] != "BackEnd") {
      return fail("malformed config line: " + std::string(line));
    }
    const auto address = net::Ipv4Address::parse(fields[1]);
    const auto port = util::parse_int(fields[2]);
    const auto capacity = util::parse_int(fields[3]);
    if (!address) return fail("bad address: " + fields[1]);
    if (!port || *port <= 0 || *port > 65535) {
      return fail("bad port: " + fields[2]);
    }
    if (!capacity || *capacity < 1 || *capacity > kMaxCapacity) {
      return fail("bad capacity: " + fields[3]);
    }
    total += *capacity;
    if (total > kMaxCapacity) {
      return fail("total capacity exceeds " + std::to_string(kMaxCapacity));
    }
    BackEndEntry entry{*address, static_cast<int>(*port),
                       static_cast<int>(*capacity),
                       fields.size() == 5 ? fields[4] : std::string()};
    if (auto status = file.add(entry); !status.ok()) {
      return fail(status.error().message);
    }
  }
  return file;
}

}  // namespace soda::core
