#include "src/sim/bus_adapter.h"

#include <algorithm>
#include <cassert>

namespace efeu::sim {

BusAdapter::BusAdapter(I2cBus* bus, int half_cycle_ticks, bool deadline_pacing)
    : bus_(bus),
      driver_id_(bus->AddDriver()),
      half_cycle_ticks_(half_cycle_ticks),
      deadline_pacing_(deadline_pacing) {}

void BusAdapter::Evaluate() {
  ++tick_;
  switch (phase_) {
    case Phase::kWaitLevels:
      assert(down_wire_ != nullptr);
      if (out_ready_ && down_wire_->valid) {
        drive_scl_ = down_wire_->data[0] != 0;
        drive_sda_ = down_wire_->data[1] != 0;
        out_ready_ = false;
        // Deadline pacing: back-to-back traffic is sampled one half period
        // after the previous sample (FSM handshake latency does not stretch
        // the bus period); a peer that shows up later than a half period
        // pays the full hold from this transition, like the real timed
        // adapter.
        int64_t deadline;
        if (!deadline_pacing_ || tick_ - prev_sample_tick_ > half_cycle_ticks_) {
          deadline = tick_ + half_cycle_ticks_;
        } else {
          deadline = std::max(tick_ + kMinHoldTicks, prev_sample_tick_ + half_cycle_ticks_);
        }
        hold_left_ = static_cast<int>(deadline - tick_);
        phase_ = Phase::kHold;
      } else {
        out_ready_ = true;
      }
      break;
    case Phase::kHold:
      if (hold_left_ > 1) {
        --hold_left_;
      } else {
        // Sample the combined bus at the end of the half cycle.
        if (fault_plan_ != nullptr) {
          fault_plan_->StepLineFaults(bus_);
        }
        sample_scl_ = bus_->scl();
        sample_sda_ = bus_->sda();
        // An ACK-window glitch can only flip a low bit the adapter is
        // listening to (its own SDA released, somebody else pulling low).
        if (!sample_sda_ && drive_sda_ && fault_plan_ != nullptr &&
            fault_plan_->ConsultAckGlitch()) {
          sample_sda_ = true;
        }
        prev_sample_tick_ = tick_;
        phase_ = Phase::kSendSample;
      }
      break;
    case Phase::kSendSample:
      assert(up_wire_ != nullptr);
      if (out_valid_ && up_wire_->ready) {
        out_valid_ = false;
        phase_ = Phase::kWaitLevels;
      } else {
        out_valid_ = true;
      }
      break;
  }
}

void BusAdapter::Commit() {
  bus_->SetDriver(driver_id_, drive_scl_, drive_sda_);
  if (down_wire_ != nullptr) {
    down_wire_->ready = out_ready_;
  }
  if (up_wire_ != nullptr) {
    up_wire_->valid = out_valid_;
    // The payload moves only when a new sample differs from it.
    const int32_t scl = sample_scl_ ? 1 : 0;
    const int32_t sda = sample_sda_ ? 1 : 0;
    if (up_wire_->data[0] != scl || up_wire_->data[1] != sda) {
      up_wire_->data[0] = scl;
      up_wire_->data[1] = sda;
    }
  }
}

}  // namespace efeu::sim
