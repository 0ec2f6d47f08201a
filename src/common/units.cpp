#include "common/units.hpp"

#include <cmath>
#include <cstdio>

namespace alsflow {

std::string human_bytes(Bytes b) {
  char buf[64];
  if (b >= TiB) {
    std::snprintf(buf, sizeof buf, "%.2f TiB", double(b) / double(TiB));
  } else if (b >= GiB) {
    std::snprintf(buf, sizeof buf, "%.2f GiB", double(b) / double(GiB));
  } else if (b >= MiB) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", double(b) / double(MiB));
  } else if (b >= KiB) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", double(b) / double(KiB));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b));
  }
  return buf;
}

std::string human_duration(Seconds s) {
  const char* sign = "";
  if (s < 0) {
    sign = "-";
    s = -s;
  }
  char buf[64];
  if (s < 60.0) {
    std::snprintf(buf, sizeof buf, "%s%.1fs", sign, s);
  } else if (s < 3600.0) {
    int m = int(s / 60.0);
    std::snprintf(buf, sizeof buf, "%s%dm %02.0fs", sign, m, s - m * 60.0);
  } else {
    int h = int(s / 3600.0);
    int m = int((s - h * 3600.0) / 60.0);
    std::snprintf(buf, sizeof buf, "%s%dh %02dm", sign, h, m);
  }
  return buf;
}

}  // namespace alsflow
