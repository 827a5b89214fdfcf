#include "bytecode/program.h"

#include <algorithm>
#include <cstring>

#include "support/bytes.h"

namespace sod::bc {

uint32_t Method::stmt_at_or_before(uint32_t pc) const {
  SOD_CHECK(!stmt_starts.empty(), "method has no statement table: " + name);
  auto it = std::upper_bound(stmt_starts.begin(), stmt_starts.end(), pc);
  SOD_CHECK(it != stmt_starts.begin(), "pc before first statement in " + name);
  return *(it - 1);
}

bool Method::is_stmt_start(uint32_t pc) const {
  return std::binary_search(stmt_starts.begin(), stmt_starts.end(), pc);
}

Instr decode(std::span<const uint8_t> code, uint32_t pc) {
  Instr in;
  in.pc = pc;
  in.op = static_cast<Op>(code[pc]);
  in.size = instr_size(code, pc);
  switch (op_info(in.op).operands) {
    case OperKind::None: break;
    case OperKind::U8: in.arg = code[pc + 1]; break;
    case OperKind::U16: {
      uint16_t v;
      std::memcpy(&v, code.data() + pc + 1, 2);
      in.arg = v;
      break;
    }
    case OperKind::Target: {
      uint32_t v;
      std::memcpy(&v, code.data() + pc + 1, 4);
      in.arg = v;
      break;
    }
    case OperKind::I64: std::memcpy(&in.imm_i, code.data() + pc + 1, 8); break;
    case OperKind::F64: std::memcpy(&in.imm_d, code.data() + pc + 1, 8); break;
    case OperKind::Switch: break;  // use decode_switch
  }
  return in;
}

SwitchInfo decode_switch(std::span<const uint8_t> code, uint32_t pc) {
  SOD_CHECK(static_cast<Op>(code[pc]) == Op::LOOKUPSWITCH, "not a lookupswitch");
  SwitchInfo si;
  uint16_t npairs;
  std::memcpy(&npairs, code.data() + pc + 1, 2);
  std::memcpy(&si.default_target, code.data() + pc + 3, 4);
  si.pairs.reserve(npairs);
  uint32_t at = pc + 7;
  for (uint16_t k = 0; k < npairs; ++k) {
    int64_t key;
    uint32_t tgt;
    std::memcpy(&key, code.data() + at, 8);
    std::memcpy(&tgt, code.data() + at + 8, 4);
    si.pairs.emplace_back(key, tgt);
    at += 12;
  }
  return si;
}

uint32_t switch_target(std::span<const uint8_t> code, uint32_t pc, int64_t key) {
  SOD_CHECK(static_cast<Op>(code[pc]) == Op::LOOKUPSWITCH, "not a lookupswitch");
  uint16_t npairs;
  uint32_t tgt;
  std::memcpy(&npairs, code.data() + pc + 1, 2);
  std::memcpy(&tgt, code.data() + pc + 3, 4);
  const uint8_t* at = code.data() + pc + 7;
  for (uint16_t k = 0; k < npairs; ++k, at += 12) {
    int64_t k64;
    std::memcpy(&k64, at, 8);
    if (k64 == key) {
      std::memcpy(&tgt, at + 8, 4);
      break;
    }
  }
  return tgt;
}

namespace {

/// Typed zero of local `slot`: the type of its last var_table entry, i64
/// when the table does not name the slot.
Ty local_type(const Method& m, uint16_t slot) {
  Ty t = Ty::I64;
  for (const auto& v : m.var_table)
    if (v.slot == slot) t = v.type;
  return t;
}

/// Rewrite the first entry of every kSuperinstructions sequence whose
/// later pcs are not in `entered` to the fused op.  A fused sequence is
/// skipped whole, so its later entries keep their plain ops.
void fuse(std::vector<DecodedInstr>& ops, const std::vector<uint8_t>& entered) {
  const auto size = static_cast<uint32_t>(ops.size());
  auto plain_at = [&](uint32_t pc) {
    return pc < size && !entered[pc] && ops[pc].op != Op::kOpCount_;
  };
  for (uint32_t pc = 0; pc < size && ops[pc].op != Op::kOpCount_; pc += ops[pc].size) {
    const uint32_t p2 = pc + ops[pc].size;
    if (!plain_at(p2)) continue;
    const uint32_t p3 = p2 + ops[p2].size;
    if (!plain_at(p3)) continue;
    for (const Superinstruction& s : kSuperinstructions) {
      if (ops[pc].op == s.seq[0] && ops[p2].op == s.seq[1] && ops[p3].op == s.seq[2]) {
        ops[pc].op = s.fused;
        pc = p3;
        break;
      }
    }
  }
}

/// Decode `m` into one entry per code byte.  Decoding stops at the first
/// bad opcode or truncated instruction, leaving the rest "not an
/// instruction start": malformed code panics when it is reached, as
/// before, not when a VM is built on the program.  `entered` is scratch
/// space, reused across methods.
DecodedMethod decode_method(const Method& m, std::vector<uint8_t>& entered) {
  DecodedMethod dm;
  dm.owner = m.owner;
  dm.num_params = static_cast<uint16_t>(m.params.size());
  dm.num_locals = m.num_locals;
  dm.max_stack = m.max_stack;
  dm.zero_locals.assign(m.num_locals, Value::of_i64(0));
  for (const auto& v : m.var_table) dm.zero_locals[v.slot] = Value::zero_of(v.type);
  dm.code = m.code;
  dm.stmt_starts = m.stmt_starts;
  dm.ops.resize(m.code.size());
  const auto size = static_cast<uint32_t>(m.code.size());
  // Pcs control can reach other than by falling through: statement
  // starts, branch and switch targets, exception handlers.
  entered.assign(size, 0);
  auto enter = [&](uint32_t pc) {
    if (pc < size) entered[pc] = 1;
  };
  for (uint32_t pc = 0; pc < size;) {
    if (m.code[pc] >= static_cast<uint8_t>(Op::kOpCount_)) break;
    if (static_cast<Op>(m.code[pc]) == Op::LOOKUPSWITCH && pc + 3 > size) break;
    uint32_t n = instr_size(m.code, pc);
    if (n > size - pc) break;
    SOD_CHECK(n <= UINT16_MAX, "lookupswitch too large to pre-decode in " + m.name);
    Instr in = decode(m.code, pc);
    dm.ops[pc] = {in.op, 0, static_cast<uint16_t>(n), in.arg};
    if (is_branch(in.op)) enter(in.arg);
    if (in.op == Op::LOOKUPSWITCH) {
      // Walked in place, as switch_target does: default, then each pair.
      uint32_t tgt;
      std::memcpy(&tgt, m.code.data() + pc + 3, 4);
      enter(tgt);
      for (uint32_t at = pc + 7 + 8; at < pc + n; at += 12) {
        std::memcpy(&tgt, m.code.data() + at, 4);
        enter(tgt);
      }
    }
    pc += n;
  }
  for (uint32_t s : m.stmt_starts) {
    if (s >= size) continue;
    dm.ops[s].flags |= DecodedInstr::kMsp;
    entered[s] = 1;
  }
  dm.handler_pcs.reserve(m.ex_table.size());
  for (const ExEntry& e : m.ex_table) {
    dm.handler_pcs.push_back(e.handler_pc);
    enter(e.handler_pc);
  }
  fuse(dm.ops, entered);
  return dm;
}

}  // namespace

DecodedProgram DecodedProgram::build(const Program& p) {
  DecodedProgram dp;
  dp.methods.reserve(p.methods.size());
  std::vector<uint8_t> entered;
  for (const Method& m : p.methods) dp.methods.push_back(decode_method(m, entered));
  return dp;
}

bool DecodedProgram::matches(const Program& p) const {
  if (methods.size() != p.methods.size()) return false;
  for (size_t i = 0; i < methods.size(); ++i) {
    const DecodedMethod& dm = methods[i];
    const Method& m = p.methods[i];
    if (dm.owner != m.owner || dm.num_params != m.params.size() ||
        dm.num_locals != m.num_locals || dm.max_stack != m.max_stack)
      return false;
    if (dm.code != m.code || dm.stmt_starts != m.stmt_starts) return false;
    if (dm.handler_pcs.size() != m.ex_table.size()) return false;
    for (size_t e = 0; e < m.ex_table.size(); ++e)
      if (dm.handler_pcs[e] != m.ex_table[e].handler_pc) return false;
    for (uint16_t s = 0; s < m.num_locals; ++s)
      if (!dm.zero_locals[s].same_as(Value::zero_of(local_type(m, s)))) return false;
  }
  return true;
}

std::shared_ptr<const DecodedProgram> Program::decoded() const {
  MutexLock lk(decode_cache_.mu);
  auto& table = decode_cache_.table;
  if (!table || !table->matches(*this))
    table = std::make_shared<const DecodedProgram>(DecodedProgram::build(*this));
  return table;
}

const Class& Program::cls(uint16_t id) const {
  SOD_CHECK(id < classes.size(), "bad class id");
  return classes[id];
}
const Method& Program::method(uint16_t id) const {
  SOD_CHECK(id < methods.size(), "bad method id");
  return methods[id];
}
Method& Program::method_mut(uint16_t id) {
  SOD_CHECK(id < methods.size(), "bad method id");
  return methods[id];
}

namespace {
template <typename Vec>
uint16_t find_by_name(const Vec& v, std::string_view name) {
  for (const auto& e : v)
    if (e.name == name) return e.id;
  return kNoId;
}
}  // namespace

uint16_t Program::find_class(std::string_view name) const { return find_by_name(classes, name); }
uint16_t Program::find_method(std::string_view name) const { return find_by_name(methods, name); }
uint16_t Program::find_field(std::string_view name) const { return find_by_name(fields, name); }

uint16_t Program::find_native(std::string_view name) const {
  for (size_t i = 0; i < natives.size(); ++i)
    if (natives[i].name == name) return static_cast<uint16_t>(i);
  return kNoId;
}

uint16_t Program::intern_string(std::string_view s) {
  for (size_t i = 0; i < strings.size(); ++i)
    if (strings[i] == s) return static_cast<uint16_t>(i);
  strings.emplace_back(s);
  return static_cast<uint16_t>(strings.size() - 1);
}

namespace {

void write_method(ByteWriter& w, const Method& m) {
  w.u16(m.id);
  w.u16(m.owner);
  w.str(m.name);
  w.u16(static_cast<uint16_t>(m.params.size()));
  for (Ty t : m.params) w.u8(static_cast<uint8_t>(t));
  w.u8(static_cast<uint8_t>(m.ret));
  w.u16(m.num_locals);
  w.u16(m.max_stack);
  w.u32(static_cast<uint32_t>(m.code.size()));
  w.raw(m.code);
  w.u16(static_cast<uint16_t>(m.var_table.size()));
  for (const auto& v : m.var_table) {
    w.str(v.name);
    w.u8(static_cast<uint8_t>(v.type));
    w.u16(v.slot);
  }
  w.u16(static_cast<uint16_t>(m.ex_table.size()));
  for (const auto& e : m.ex_table) {
    w.u32(e.from_pc);
    w.u32(e.to_pc);
    w.u32(e.handler_pc);
    w.u16(e.ex_class);
  }
  w.u32(static_cast<uint32_t>(m.stmt_starts.size()));
  for (uint32_t s : m.stmt_starts) w.u32(s);
}

Method read_method(ByteReader& r) {
  Method m;
  m.id = r.u16();
  m.owner = r.u16();
  m.name = r.str();
  uint16_t np = r.u16();
  m.params.resize(np);
  for (auto& t : m.params) t = static_cast<Ty>(r.u8());
  m.ret = static_cast<Ty>(r.u8());
  m.num_locals = r.u16();
  m.max_stack = r.u16();
  uint32_t csz = r.u32();
  m.code.resize(csz);
  for (uint32_t i = 0; i < csz; ++i) m.code[i] = r.u8();
  uint16_t nv = r.u16();
  m.var_table.resize(nv);
  for (auto& v : m.var_table) {
    v.name = r.str();
    v.type = static_cast<Ty>(r.u8());
    v.slot = r.u16();
  }
  uint16_t ne = r.u16();
  m.ex_table.resize(ne);
  for (auto& e : m.ex_table) {
    e.from_pc = r.u32();
    e.to_pc = r.u32();
    e.handler_pc = r.u32();
    e.ex_class = r.u16();
  }
  uint32_t ns = r.u32();
  m.stmt_starts.resize(ns);
  for (auto& s : m.stmt_starts) s = r.u32();
  return m;
}

void write_field(ByteWriter& w, const Field& f) {
  w.u16(f.id);
  w.u16(f.owner);
  w.str(f.name);
  w.u8(static_cast<uint8_t>(f.type));
  w.u8(f.is_static ? 1 : 0);
  w.u16(f.slot);
}

Field read_field(ByteReader& r) {
  Field f;
  f.id = r.u16();
  f.owner = r.u16();
  f.name = r.str();
  f.type = static_cast<Ty>(r.u8());
  f.is_static = r.u8() != 0;
  f.slot = r.u16();
  return f;
}

void write_class_meta(ByteWriter& w, const Class& c) {
  w.u16(c.id);
  w.str(c.name);
  w.u16(c.num_inst_slots);
  w.u16(c.num_static_slots);
  w.u8(c.is_exception ? 1 : 0);
}

Class read_class_meta(ByteReader& r) {
  Class c;
  c.id = r.u16();
  c.name = r.str();
  c.num_inst_slots = r.u16();
  c.num_static_slots = r.u16();
  c.is_exception = r.u8() != 0;
  return c;
}

}  // namespace

std::vector<uint8_t> Program::class_image(uint16_t class_id) const {
  const Class& c = cls(class_id);
  ByteWriter w;
  write_class_meta(w, c);
  w.u16(static_cast<uint16_t>(c.field_ids.size()));
  for (uint16_t fid : c.field_ids) write_field(w, field(fid));
  w.u16(static_cast<uint16_t>(c.method_ids.size()));
  for (uint16_t mid : c.method_ids) write_method(w, method(mid));
  return w.take();
}

namespace {

// Byte counts of the write_* encodings above, kept in step with them (a
// test compares class_image_size against class_image for real programs).
size_t str_size(const std::string& s) { return 4 + s.size(); }

size_t method_size(const Method& m) {
  size_t n = 2 + 2 + str_size(m.name) + 2 + m.params.size() + 1 + 2 + 2 + 4 + m.code.size();
  n += 2;
  for (const auto& v : m.var_table) n += str_size(v.name) + 1 + 2;
  n += 2 + m.ex_table.size() * (4 + 4 + 4 + 2);
  n += 4 + m.stmt_starts.size() * 4;
  return n;
}

size_t field_size(const Field& f) { return 2 + 2 + str_size(f.name) + 1 + 1 + 2; }

}  // namespace

size_t Program::class_image_size(uint16_t class_id) const {
  const Class& c = cls(class_id);
  size_t n = 2 + str_size(c.name) + 2 + 2 + 1;
  n += 2;
  for (uint16_t fid : c.field_ids) n += field_size(field(fid));
  n += 2;
  for (uint16_t mid : c.method_ids) n += method_size(method(mid));
  return n;
}

size_t Program::total_image_size() const {
  size_t sz = 0;
  for (const auto& c : classes) sz += class_image_size(c.id);
  return sz;
}

std::vector<uint8_t> Program::serialize() const {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(classes.size()));
  for (const auto& c : classes) {
    write_class_meta(w, c);
    w.u16(static_cast<uint16_t>(c.field_ids.size()));
    for (uint16_t fid : c.field_ids) w.u16(fid);
    w.u16(static_cast<uint16_t>(c.method_ids.size()));
    for (uint16_t mid : c.method_ids) w.u16(mid);
  }
  w.u32(static_cast<uint32_t>(methods.size()));
  for (const auto& m : methods) write_method(w, m);
  w.u32(static_cast<uint32_t>(fields.size()));
  for (const auto& f : fields) write_field(w, f);
  w.u32(static_cast<uint32_t>(strings.size()));
  for (const auto& s : strings) w.str(s);
  w.u32(static_cast<uint32_t>(natives.size()));
  for (const auto& n : natives) {
    w.str(n.name);
    w.u16(static_cast<uint16_t>(n.params.size()));
    for (Ty t : n.params) w.u8(static_cast<uint8_t>(t));
    w.u8(static_cast<uint8_t>(n.ret));
  }
  return w.take();
}

Program Program::deserialize(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  Program p;
  uint32_t nc = r.u32();
  p.classes.resize(nc);
  for (auto& c : p.classes) {
    c = read_class_meta(r);
    uint16_t nf = r.u16();
    c.field_ids.resize(nf);
    for (auto& fid : c.field_ids) fid = r.u16();
    uint16_t nm = r.u16();
    c.method_ids.resize(nm);
    for (auto& mid : c.method_ids) mid = r.u16();
  }
  uint32_t nm = r.u32();
  p.methods.resize(nm);
  for (auto& m : p.methods) m = read_method(r);
  uint32_t nf = r.u32();
  p.fields.resize(nf);
  for (auto& f : p.fields) f = read_field(r);
  uint32_t ns = r.u32();
  p.strings.resize(ns);
  for (auto& s : p.strings) s = r.str();
  uint32_t nn = r.u32();
  p.natives.resize(nn);
  for (auto& n : p.natives) {
    n.name = r.str();
    uint16_t np = r.u16();
    n.params.resize(np);
    for (auto& t : n.params) t = static_cast<Ty>(r.u8());
    n.ret = static_cast<Ty>(r.u8());
  }
  SOD_CHECK(r.done(), "trailing bytes in program image");
  return p;
}

}  // namespace sod::bc
