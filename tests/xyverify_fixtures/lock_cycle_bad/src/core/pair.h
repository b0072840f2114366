#ifndef FIXTURE_CORE_PAIR_H_
#define FIXTURE_CORE_PAIR_H_
namespace xydiff {
class Mutex {};
class Pair {
 public:
  void ForwardSweep();
  void ReverseSweep();

 private:
  Mutex mu_a_;
  Mutex mu_b_;
};
}  // namespace xydiff
#endif
