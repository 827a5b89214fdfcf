#include "vmti/vmti.h"

namespace sod::vmti {

size_t ToolInterface::frame_index(int tid, int depth) const {
  const auto& th = vm_->thread(tid);
  SOD_CHECK(depth >= 0 && static_cast<size_t>(depth) < th.frames.size(), "bad frame depth");
  return th.frames.size() - 1 - static_cast<size_t>(depth);
}

int ToolInterface::get_stack_depth(int tid) {
  spent_ += cm_.get_stack_depth;
  return static_cast<int>(vm_->thread(tid).frames.size());
}

FrameLocation ToolInterface::get_frame_location(int tid, int depth) {
  spent_ += cm_.get_frame_location;
  const svm::Frame& f = vm_->thread(tid).frames[frame_index(tid, depth)];
  return FrameLocation{f.method, f.pc};
}

const std::vector<bc::LocalVar>& ToolInterface::get_local_variable_table(uint16_t method) {
  spent_ += cm_.get_local_table;
  return vm_->program().method(method).var_table;
}

Value ToolInterface::get_local(int tid, int depth, uint16_t slot) {
  spent_ += cm_.get_local;
  std::span<const Value> locals = vm_->frame_locals(tid, frame_index(tid, depth));
  SOD_CHECK(slot < locals.size(), "bad local slot");
  return locals[slot];
}

void ToolInterface::set_local(int tid, int depth, uint16_t slot, Value v) {
  spent_ += cm_.set_local;
  std::span<Value> locals = vm_->frame_locals(tid, frame_index(tid, depth));
  SOD_CHECK(slot < locals.size(), "bad local slot");
  locals[slot] = v;
}

Value ToolInterface::get_static_field(uint16_t field_id) {
  spent_ += cm_.get_static;
  return vm_->get_static(field_id);
}

void ToolInterface::set_static_field(uint16_t field_id, Value v) {
  spent_ += cm_.set_static;
  vm_->set_static(field_id, v);
}

void ToolInterface::set_breakpoint(uint16_t method, uint32_t pc) {
  spent_ += cm_.set_breakpoint;
  vm_->add_breakpoint(method, pc);
}

void ToolInterface::clear_breakpoint(uint16_t method, uint32_t pc) {
  spent_ += cm_.set_breakpoint;
  vm_->remove_breakpoint(method, pc);
}

void ToolInterface::raise_exception(int tid, uint16_t ex_cls, std::string_view msg) {
  spent_ += cm_.raise_exception;
  vm_->raise_in_thread(tid, ex_cls, msg);
}

void ToolInterface::pop_frame(int tid) {
  spent_ += cm_.pop_frame;
  vm_->pop_top_frame(tid);
}

void ToolInterface::force_early_return(int tid, Value v) {
  spent_ += cm_.force_early_return;
  vm_->early_return(tid, v);
}

Ref ToolInterface::resolve_object(Ref r) {
  spent_ += cm_.get_object;
  return r;
}

}  // namespace sod::vmti
