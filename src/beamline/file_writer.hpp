// File-writer service (Section 4.2.1).
//
// Subscribes to the PVA mirror channel, validates each frame batch against
// the announced scan metadata, and assembles the acquisition into an HDF5
// (AH5) file on the beamline storage server. When the last frame lands the
// write is finalized (write time = bytes / disk rate) and completion
// callbacks fire — in production this is the Prefect call that launches
// the file-based flows.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "beamline/frames.hpp"
#include "common/checksum.hpp"
#include "net/pubsub.hpp"
#include "sim/engine.hpp"
#include "storage/endpoint.hpp"

namespace alsflow::beamline {

struct FileWriterConfig {
  double write_rate = 1.2e9;           // beamline server sequential write
  std::string raw_prefix = "/raw/";    // destination directory
};

class FileWriterService {
 public:
  using Config = FileWriterConfig;

  using CompletionCallback =
      std::function<void(const data::ScanMetadata&, const std::string& path)>;

  FileWriterService(sim::Engine& eng, net::Channel<FrameBatch>& mirror,
                    storage::StorageEndpoint& dest, Config config = {});
  // The mirror channel's sink holds `this`.
  FileWriterService(const FileWriterService&) = delete;
  FileWriterService& operator=(const FileWriterService&) = delete;

  // Announce an upcoming acquisition; batches for unannounced scans are
  // rejected and counted as validation errors.
  void begin_scan(const data::ScanMetadata& scan);

  void on_complete(CompletionCallback cb) {
    callbacks_.push_back(std::move(cb));
  }

  std::size_t scans_written() const { return scans_written_; }
  std::size_t validation_errors() const { return validation_errors_; }

  // Path the writer uses for a scan.
  std::string path_for(const data::ScanMetadata& scan) const {
    return config_.raw_prefix + scan.scan_id + ".ah5";
  }

 private:
  struct InProgress {
    data::ScanMetadata scan;
    std::size_t frames_seen = 0;
    Bytes bytes_seen = 0;
    bool saw_last = false;  // batches may arrive out of order
    Fnv1a64 digest;
  };

  // Mirror-channel sink: validates one batch and finalizes the scan once
  // every frame has landed.
  void on_batch(const FrameBatch& batch);
  sim::Proc finalize(InProgress state);

  sim::Engine& eng_;
  storage::StorageEndpoint& dest_;
  Config config_;
  std::map<std::string, InProgress> active_;
  std::vector<CompletionCallback> callbacks_;
  std::size_t scans_written_ = 0;
  std::size_t validation_errors_ = 0;
};

}  // namespace alsflow::beamline
