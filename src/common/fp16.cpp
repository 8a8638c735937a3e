#include "common/fp16.hpp"

#include <ostream>

namespace efld {

std::ostream& operator<<(std::ostream& os, Fp16 h) { return os << h.to_float(); }

}  // namespace efld
