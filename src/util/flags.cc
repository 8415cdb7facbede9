#include "util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace atrapos {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", a);
      std::exit(2);
    }
    std::string s(a + 2);
    auto eq = s.find('=');
    if (eq != std::string::npos) {
      kv_[s.substr(0, eq)] = s.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      kv_[s] = argv[++i];
    } else {
      kv_[s] = "true";
    }
  }
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  auto it = kv_.find(name);
  return it == kv_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  return *v == "true" || *v == "1" || *v == "yes";
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : *v;
}

void Flags::RejectUnknown() const {
  bool unknown = false;
  for (const auto& kv : kv_) {
    if (read_.count(kv.first) > 0) continue;
    std::fprintf(stderr, "unknown flag: --%s\n", kv.first.c_str());
    unknown = true;
  }
  if (unknown) std::exit(2);
}

}  // namespace atrapos
