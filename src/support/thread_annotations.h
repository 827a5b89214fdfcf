// Clang thread-safety annotations (a no-op on other compilers) plus thin
// annotated wrappers over the std mutexes, so `-Wthread-safety` can prove
// lock discipline on the wall-clock engine and thread pool at compile time.
//
// Only the wrappers carry capability attributes: std::mutex itself cannot
// be annotated, and the analysis needs the CAPABILITY/SCOPED_CAPABILITY
// types to thread the facts through.  Code that must hand a raw native
// handle to an un-annotated API (condition variables, C callbacks) uses
// `native()` — the analysis cannot see through it.
//
// There is deliberately no recursive mutex here: every capability the
// analysis tracks is acquired exactly once per holder.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SOD_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SOD_THREAD_ANNOTATION
#define SOD_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define SOD_CAPABILITY(x) SOD_THREAD_ANNOTATION(capability(x))
#define SOD_SCOPED_CAPABILITY SOD_THREAD_ANNOTATION(scoped_lockable)
#define SOD_GUARDED_BY(x) SOD_THREAD_ANNOTATION(guarded_by(x))
#define SOD_REQUIRES(...) SOD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SOD_ACQUIRE(...) SOD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SOD_RELEASE(...) SOD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SOD_TRY_ACQUIRE(...) SOD_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define SOD_NO_THREAD_SAFETY_ANALYSIS SOD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sod {

/// Annotated std::mutex.  Lowercase lock()/unlock() keep it BasicLockable
/// so std::condition_variable_any can wait on the scoped lock directly.
class SOD_CAPABILITY("mutex") Mutex {
 public:
  void lock() SOD_ACQUIRE() { mu_.lock(); }
  void unlock() SOD_RELEASE() { mu_.unlock(); }
  bool try_lock() SOD_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over an annotated mutex (std::scoped_lock cannot carry
/// the scoped-capability attribute).  BasicLockable, so it can be handed
/// straight to std::condition_variable_any::wait.
template <class M>
class SOD_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(M& mu) SOD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~ScopedLock() SOD_RELEASE() {
    if (held_) mu_.unlock();
  }
  void lock() SOD_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }
  void unlock() SOD_RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  M& mu_;
  bool held_ = true;
};

using MutexLock = ScopedLock<Mutex>;

}  // namespace sod
