// IfuncLibrary: an injectable function library — name, wire identity, and
// its code archive (multi-ISA bitcode or pre-compiled objects) plus the
// dependency manifest. This is what the application registers with a
// Runtime and what travels inside message frames.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "ir/fat_bitcode.hpp"
#include "ir/kernels.hpp"

namespace tc::core {

/// Wire identity of an ifunc: FNV-1a of its registered name.
inline std::uint64_t ifunc_id_for_name(std::string_view name) {
  return fnv1a64(name);
}

/// Registered name of a stock kernel's portable-bytecode variant (the
/// naming convention from_portable_kernel applies).
std::string portable_kernel_name(ir::KernelKind kind);

class IfuncLibrary {
 public:
  /// Wraps a built archive under `name`. The archive must be non-empty.
  static StatusOr<IfuncLibrary> from_archive(std::string name,
                                             ir::FatBitcode archive);

  /// Builds one of the stock kernels for the default target set — the
  /// one-call path used by examples and benchmarks. Requires TC_WITH_LLVM
  /// (fails with kFailedPrecondition otherwise).
  static StatusOr<IfuncLibrary> from_kernel(
      ir::KernelKind kind, const ir::KernelOptions& options = {});

  /// Builds a stock kernel as a portable-only ('TCFP') archive — the
  /// interpreter tier, available with or without LLVM. Library name is
  /// `<kernel>_vm`, a distinct wire identity from the bitcode variants.
  static StatusOr<IfuncLibrary> from_portable_kernel(
      ir::KernelKind kind, const ir::KernelOptions& options = {});

  /// Builds a *tiered* archive: a portable entry (interpreted immediately
  /// on arrival, zero compile) plus — when LLVM is compiled in — per-ISA
  /// bitcode entries the receiving runtime promotes to once the ifunc is
  /// hot. Library name is `<kernel>_tiered`.
  static StatusOr<IfuncLibrary> from_tiered_kernel(
      ir::KernelKind kind, const ir::KernelOptions& options = {});

  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  const ir::FatBitcode& archive() const { return archive_; }
  ir::CodeRepr repr() const { return archive_.repr(); }

  /// Serialized archive bytes as they appear in the frame code section.
  const Bytes& serialized_archive() const { return *serialized_; }
  /// The same bytes, shared: a deferred send keeps them alive without
  /// copying them (copies of a library share one immutable buffer).
  const std::shared_ptr<const Bytes>& shared_archive() const {
    return serialized_;
  }

 private:
  IfuncLibrary() = default;
  std::string name_;
  std::uint64_t id_ = 0;
  ir::FatBitcode archive_;
  std::shared_ptr<const Bytes> serialized_;
};

}  // namespace tc::core
