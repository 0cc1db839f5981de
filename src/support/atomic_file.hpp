// Durable whole-file replacement for the files a crash must never tear: the
// profiler checkpoint, its `.epochs` sidecar and the shipper's spill.
#pragma once

#include <string>
#include <string_view>

namespace commscope::support {

/// Replaces `path` with `contents`: writes "<path>.tmp", fsyncs it, renames
/// it over `path` and fsyncs the directory, so after a crash or power loss
/// the file holds either its previous or its new contents, never a torn mix.
/// On failure the temporary is removed and std::runtime_error names `path`.
void write_file_atomic(const std::string& path, std::string_view contents);

}  // namespace commscope::support
