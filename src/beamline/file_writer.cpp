#include "beamline/file_writer.hpp"

#include "common/log.hpp"

namespace alsflow::beamline {

FileWriterService::FileWriterService(sim::Engine& eng,
                                     net::Channel<FrameBatch>& mirror,
                                     storage::StorageEndpoint& dest,
                                     Config config)
    : eng_(eng), dest_(dest), config_(config) {
  mirror.attach([this](const FrameBatch& batch) { on_batch(batch); });
}

void FileWriterService::begin_scan(const data::ScanMetadata& scan) {
  Status valid = scan.validate();
  if (!valid.ok()) {
    ++validation_errors_;
    log_error("filewriter") << "rejected scan " << scan.scan_id << ": "
                            << valid.error().message;
    return;
  }
  InProgress state;
  state.scan = scan;
  state.digest.update(scan.scan_id.data(), scan.scan_id.size());
  active_[scan.scan_id] = std::move(state);
}

void FileWriterService::on_batch(const FrameBatch& batch) {
  auto it = active_.find(batch.scan_id);
  if (it == active_.end()) {
    ++validation_errors_;
    log_warn("filewriter") << "batch for unannounced scan " << batch.scan_id;
    return;
  }
  InProgress& state = it->second;

  // Per-frame metadata validation (shape + angle range).
  data::FrameMetadata meta;
  meta.scan_id = batch.scan_id;
  meta.angle_index = batch.first_angle + batch.count - 1;
  meta.rows = state.scan.rows;
  meta.cols = state.scan.cols;
  meta.timestamp = batch.acquired_at;
  if (!meta.validate(state.scan).ok()) {
    ++validation_errors_;
    return;
  }

  state.frames_seen += batch.count;
  state.bytes_seen += batch.bytes;
  state.digest.update(&batch.first_angle, sizeof batch.first_angle);

  if (batch.last_of_scan) state.saw_last = true;
  if (state.saw_last && state.frames_seen >= state.scan.n_angles) {
    InProgress done = std::move(state);
    active_.erase(it);
    finalize(std::move(done)).detach();
  }
}

sim::Proc FileWriterService::finalize(InProgress state) {
  // Reference frames (darks/flats) are appended to the file.
  const Bytes total = state.scan.raw_bytes();
  co_await sim::delay(eng_, double(total) / config_.write_rate);

  const std::string path = path_for(state.scan);
  state.scan.acquired_at = eng_.now();
  Status put = dest_.put(path, total, state.digest.digest(), eng_.now());
  if (!put.ok()) {
    log_error("filewriter") << "write failed for " << state.scan.scan_id
                            << ": " << put.error().code;
    co_return;
  }
  ++scans_written_;
  log_info("filewriter") << "wrote " << path << " ("
                         << human_bytes(total) << ")";
  for (auto& cb : callbacks_) cb(state.scan, path);
}

}  // namespace alsflow::beamline
