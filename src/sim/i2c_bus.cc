#include "src/sim/i2c_bus.h"

namespace efeu::sim {

int I2cBus::AddDriver() {
  drivers_.push_back(Drive{});
  return static_cast<int>(drivers_.size()) - 1;
}

void I2cBus::Capture(double t_ns) {
  if (!capture_) {
    return;
  }
  bool s = scl();
  bool d = sda();
  if (!samples_.empty() && samples_.back().scl == s && samples_.back().sda == d) {
    return;
  }
  samples_.push_back(Sample{t_ns, s, d});
}

}  // namespace efeu::sim
