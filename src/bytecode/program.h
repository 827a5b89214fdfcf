// Code image of a SODEE application: classes, methods, fields, string pool
// and native-function names.  A Program is immutable shared *code*; runtime
// state (heap, statics, threads) lives in svm::VM instances that load
// classes from a Program — mirroring how the paper's worker JVMs load
// transferred class files.
//
// Methods carry the metadata the migration machinery relies on:
//   - var_table:    the local-variable table exposed through the tool
//                   interface (JVMTI's GetLocalVariableTable equivalent)
//   - stmt_starts:  statement-start pcs.  After preprocessing these are the
//                   migration-safe points (MSPs): the operand stack is
//                   provably empty at each of them.
//   - ex_table:     try/catch ranges (used both by guest code and by the
//                   injected restoration / object-fault handlers)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bytecode/ops.h"
#include "bytecode/types.h"
#include "support/thread_annotations.h"

namespace sod::bc {

/// Catch-all marker in ExEntry::ex_class.
inline constexpr uint16_t kAnyClass = 0xFFFF;
/// "No such id" marker.
inline constexpr uint16_t kNoId = 0xFFFF;

/// Built-in exception classes; ProgramBuilder registers these first so the
/// ids are stable across every program.
namespace builtin {
inline constexpr uint16_t kNullPointer = 0;    ///< java.lang.NullPointerException
inline constexpr uint16_t kInvalidState = 1;   ///< the restoration trigger
inline constexpr uint16_t kOutOfMemory = 2;    ///< for exception-driven offload
inline constexpr uint16_t kClassNotFound = 3;  ///< for exception-driven offload
inline constexpr uint16_t kArithmetic = 4;
inline constexpr uint16_t kIndexOutOfBounds = 5;
inline constexpr uint16_t kCount = 6;
}  // namespace builtin

struct LocalVar {
  std::string name;
  Ty type = Ty::I64;
  uint16_t slot = 0;
};

struct ExEntry {
  uint32_t from_pc = 0;    ///< inclusive
  uint32_t to_pc = 0;      ///< exclusive
  uint32_t handler_pc = 0;
  uint16_t ex_class = kAnyClass;
};

struct Method {
  uint16_t id = kNoId;
  uint16_t owner = kNoId;  ///< owning class id
  std::string name;        ///< qualified "Class.method"
  std::vector<Ty> params;  ///< parameter types (locals 0..k-1)
  Ty ret = Ty::Void;
  uint16_t num_locals = 0;
  uint16_t max_stack = 0;  ///< computed by the verifier
  std::vector<uint8_t> code;
  std::vector<LocalVar> var_table;
  std::vector<ExEntry> ex_table;
  std::vector<uint32_t> stmt_starts;  ///< sorted; MSPs after preprocessing

  /// Largest statement start <= pc (statement containing pc).
  uint32_t stmt_at_or_before(uint32_t pc) const;
  /// True if pc is a registered statement start / migration-safe point.
  bool is_stmt_start(uint32_t pc) const;
};

struct Field {
  uint16_t id = kNoId;
  uint16_t owner = kNoId;
  std::string name;  ///< qualified "Class.field"
  Ty type = Ty::I64;
  bool is_static = false;
  uint16_t slot = 0;  ///< instance-slot or static-slot index within owner
};

struct Class {
  uint16_t id = kNoId;
  std::string name;
  std::vector<uint16_t> method_ids;
  std::vector<uint16_t> field_ids;
  uint16_t num_inst_slots = 0;
  uint16_t num_static_slots = 0;
  bool is_exception = false;  ///< throwable
};

/// Declared signature of a native (host) function; natives run inline in
/// the caller's frame — the SODEE equivalents of JNI / helper runtime calls.
struct NativeDecl {
  std::string name;
  std::vector<Ty> params;
  Ty ret = Ty::Void;
};

/// One decoded instruction (for analysis and rewriting passes).
struct Instr {
  Op op = Op::NOP;
  uint32_t pc = 0;
  uint32_t size = 1;
  int64_t imm_i = 0;   ///< ICONST immediate
  double imm_d = 0;    ///< DCONST immediate
  uint32_t arg = 0;    ///< u8/u16 operand or branch target
};

/// Decoded LOOKUPSWITCH payload.
struct SwitchInfo {
  uint32_t default_target = 0;
  std::vector<std::pair<int64_t, uint32_t>> pairs;
};

Instr decode(std::span<const uint8_t> code, uint32_t pc);
SwitchInfo decode_switch(std::span<const uint8_t> code, uint32_t pc);
/// Branch target a LOOKUPSWITCH at `pc` takes for `key` (no allocation).
uint32_t switch_target(std::span<const uint8_t> code, uint32_t pc, int64_t key);

/// Superinstructions: ops that exist only in a decoded table, numbered
/// after kOpCount_.  Each stands for a hot straight-line sequence of three
/// throw-free, call-free, allocation-free instructions.  Bytecode, the
/// verifier, disasm, class images and captured state never see them.
namespace fused {
inline constexpr Op ILOAD_ICONST_ISUB = static_cast<Op>(kNumOps + 1);
inline constexpr Op ILOAD_ICONST_IF_ICMPGE = static_cast<Op>(kNumOps + 2);
inline constexpr Op ILOAD_ILOAD_IADD = static_cast<Op>(kNumOps + 3);
}  // namespace fused

/// A fused op and the sequence it stands for.
struct Superinstruction {
  Op fused;
  Op seq[3];
};
/// The pattern table, in fused-op order.
inline constexpr Superinstruction kSuperinstructions[] = {
    {fused::ILOAD_ICONST_ISUB, {Op::ILOAD, Op::ICONST, Op::ISUB}},
    {fused::ILOAD_ICONST_IF_ICMPGE, {Op::ILOAD, Op::ICONST, Op::IF_ICMPGE}},
    {fused::ILOAD_ILOAD_IADD, {Op::ILOAD, Op::ILOAD, Op::IADD}},
};
inline constexpr int kNumFused = static_cast<int>(std::size(kSuperinstructions));

constexpr bool is_fused(Op op) { return op > Op::kOpCount_; }
/// The op of the first instruction an entry runs: a fused op's first op,
/// any other op itself.
constexpr Op plain_op(Op op) {
  return is_fused(op) ? kSuperinstructions[static_cast<int>(op) - kNumOps - 1].seq[0] : op;
}

/// One pre-decoded instruction: the interpreter's dispatch entry.  Tables
/// are indexed by *byte* pc, so branch targets, captured pcs, breakpoints
/// and statement starts keep their byte-offset meaning; bytes that do not
/// start an instruction hold op == kOpCount_.  ICONST/DCONST immediates
/// and LOOKUPSWITCH payloads stay in the code bytes.
///
/// The first entry of a kSuperinstructions sequence holds the fused op;
/// its size, arg and flags, and every later entry of the sequence, stay
/// those of the plain instructions.  A sequence is fused only when no pc
/// after its first is a statement start, a branch or switch target, or an
/// exception handler, so no pc can be observed mid-sequence.
struct DecodedInstr {
  static constexpr uint8_t kMsp = 1;  ///< flag: pc is a statement start (MSP)

  Op op = Op::kOpCount_;
  uint8_t flags = 0;
  uint16_t size = 0;  ///< encoded size, as Instr::size
  uint32_t arg = 0;   ///< u8/u16 operand or branch target, as Instr::arg
};
static_assert(sizeof(DecodedInstr) == 8, "dispatch entries must stay 8 bytes");

struct DecodedMethod {
  // Frame header: what INVOKE needs to push a frame without a
  // Program::method call.
  uint16_t owner = kNoId;
  uint16_t num_params = 0;
  uint16_t num_locals = 0;
  uint16_t max_stack = 0;
  /// Typed zero of every local (Ref slots null, untyped slots i64 0): a
  /// pushed frame's non-parameter locals are copied from here.
  std::vector<Value> zero_locals;

  std::vector<uint8_t> code;          ///< the code `ops` was decoded from
  std::vector<uint32_t> stmt_starts;  ///< the statement table behind kMsp
  std::vector<uint32_t> handler_pcs;  ///< ex_table handler pcs, in table order
  std::vector<DecodedInstr> ops;      ///< one entry per code byte
};

class Program;

/// Every method of a Program decoded once.  Immutable after build and
/// shared read-only by all VMs on the program (see Program::decoded).
struct DecodedProgram {
  std::vector<DecodedMethod> methods;

  static DecodedProgram build(const Program& p);
  /// True while every method's code, statement table, exception handler
  /// pcs and frame header (owner, parameter count, num_locals, max_stack,
  /// local types) still equal the ones this table was built from.
  bool matches(const Program& p) const;
};

class Program {
 public:
  std::vector<Class> classes;
  std::vector<Method> methods;
  std::vector<Field> fields;
  std::vector<std::string> strings;     ///< LDC_STR pool
  std::vector<NativeDecl> natives;      ///< INVOKENATIVE pool

  const Class& cls(uint16_t id) const;
  const Method& method(uint16_t id) const;
  const Field& field(uint16_t id) const {
    SOD_CHECK(id < fields.size(), "bad field id");
    return fields[id];
  }
  Method& method_mut(uint16_t id);

  uint16_t find_class(std::string_view name) const;    ///< kNoId if absent
  uint16_t find_method(std::string_view name) const;   ///< qualified name
  uint16_t find_field(std::string_view name) const;    ///< qualified name
  uint16_t find_native(std::string_view name) const;

  uint16_t intern_string(std::string_view s);

  /// Serialized "class file" image of one class (class metadata + its
  /// fields + its methods with code).  Its byte size is what class
  /// transfer costs in the experiments (cf. Fig. 5 class-file sizes and
  /// the Table VII class-transfer column).
  std::vector<uint8_t> class_image(uint16_t class_id) const;
  /// class_image(class_id).size(), counted without building the bytes.
  size_t class_image_size(uint16_t class_id) const;

  /// Total image size of all classes (whole-program code size).
  size_t total_image_size() const;

  /// Serialize / reconstruct the entire program (used when shipping code
  /// to a freshly spawned worker).
  std::vector<uint8_t> serialize() const;
  static Program deserialize(std::span<const uint8_t> bytes);

  /// The shared decode of the current code.  Methods are public and
  /// rewritten in place (the preprocessor does), so the cached table is
  /// checked against the live code on every call and rebuilt when stale;
  /// a holder of an older table keeps it unchanged.  Thread-safe.
  std::shared_ptr<const DecodedProgram> decoded() const;

 private:
  /// Copies and assignments start with an empty cache: a table belongs
  /// to the code it was decoded from.
  struct DecodeCache {
    DecodeCache() = default;
    DecodeCache(const DecodeCache&) {}
    DecodeCache& operator=(const DecodeCache&) {
      MutexLock lk(mu);
      table.reset();
      return *this;
    }
    Mutex mu;
    std::shared_ptr<const DecodedProgram> table SOD_GUARDED_BY(mu);
  };
  mutable DecodeCache decode_cache_;
};

}  // namespace sod::bc
