#ifndef FIXTURE_CORE_COUNTER_H_
#define FIXTURE_CORE_COUNTER_H_
namespace xydiff {
class Mutex {};
class Counter {
 public:
  void Bump();
  void BumpTwice();

 private:
  void BumpLocked();
  Mutex mu_;
  int value_ = 0;
};
}  // namespace xydiff
#endif
